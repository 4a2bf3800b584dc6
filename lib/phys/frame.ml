type t = {
  frame_module : int;
  frame_index : int;
  data : int array;
  mutable owner : int;  (* owning cpage id, or -1 when free *)
}

let create ~mem_module ~index ~words =
  if words <= 0 then invalid_arg "Frame.create: words must be positive";
  { frame_module = mem_module; frame_index = index; data = Array.make words 0; owner = -1 }

let mem_module t = t.frame_module
let index t = t.frame_index
let words t = Array.length t.data
let owner t = if t.owner < 0 then None else Some t.owner

let set_owner t = function
  | None -> t.owner <- -1
  | Some id ->
    if id < 0 then invalid_arg "Frame.set_owner: negative cpage id";
    t.owner <- id

let get t off = t.data.(off)
let set t off v = t.data.(off) <- v

(* A typed copy, so no write barrier (see frame.mli); one range check up front. *)
let copy (src : int array) src_off (dst : int array) dst_off words =
  if words < 0 || src_off < 0 || dst_off < 0 || src_off > Array.length src - words
     || dst_off > Array.length dst - words
  then invalid_arg "Frame: copy out of range";
  for i = 0 to words - 1 do
    Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
  done

let read_words t ~off ~dst ~dst_off ~words = copy t.data off dst dst_off words
let write_words t ~off ~src ~src_off ~words = copy src src_off t.data off words

let blit_from ~src ~dst =
  if Array.length src.data <> Array.length dst.data then
    invalid_arg "Frame.blit_from: size mismatch";
  copy src.data 0 dst.data 0 (Array.length src.data)

let fill_zero t = Array.fill t.data 0 (Array.length t.data) 0

let equal_data a b =
  Array.length a.data = Array.length b.data
  &&
  let rec loop i =
    i >= Array.length a.data || (a.data.(i) = b.data.(i) && loop (i + 1))
  in
  loop 0
