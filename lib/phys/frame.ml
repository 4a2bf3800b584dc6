(* Replicas share one buffer; [cell.holders] counts them.  A correct run
   never writes a shared buffer (frame.mli). *)
type cell = { mutable holders : int }

type t = {
  frame_module : int;
  frame_index : int;
  nwords : int;
  mutable data : int array;  (* [||] once a freed sharer dropped its share *)
  mutable cell : cell;
  mutable owner : int;  (* owning cpage id, or -1 when free *)
}

(* The cell of a frame with no buffer.  Never written: counts change only
   on cells with more than one holder, or on a backed source's. *)
let unbacked = { holders = 0 }

let create ~mem_module ~index ~words =
  if words <= 0 then invalid_arg "Frame.create: words must be positive";
  { frame_module = mem_module; frame_index = index; nwords = words;
    data = Array.make words 0; cell = { holders = 1 }; owner = -1 }

let mem_module t = t.frame_module
let index t = t.frame_index
let words t = t.nwords
let owner t = if t.owner < 0 then None else Some t.owner

(* Drop a shared buffer without allocating; the other holders keep it. *)
let drop t =
  if t.cell.holders > 1 then begin
    t.cell.holders <- t.cell.holders - 1;
    t.data <- [||];
    t.cell <- unbacked
  end

let set_owner t = function
  | None -> drop t; t.owner <- -1
  | Some id ->
    if id < 0 then invalid_arg "Frame.set_owner: negative cpage id";
    t.owner <- id

exception Shared_write of { mem_module : int; index : int; owner : int }

let () =
  Printexc.register_printer (function
    | Shared_write { mem_module; index; owner } ->
      Some
        (Printf.sprintf
           "cpage %d: shared-write (§3.2): write to frame %d on module %d while another \
            live frame shares its buffer"
           owner index mem_module)
    | _ -> None)

(* Out of line, so [set] inlines. *)
let[@inline never] shared_write t =
  raise (Shared_write { mem_module = t.frame_module; index = t.frame_index; owner = t.owner })

let[@inline] get t off = t.data.(off)

let[@inline] set t off v =
  if t.cell.holders > 1 then shared_write t;
  t.data.(off) <- v

(* A typed copy, so no write barrier (see frame.mli); one range check up front. *)
let copy (src : int array) src_off (dst : int array) dst_off words =
  if words < 0 || src_off < 0 || dst_off < 0 || src_off > Array.length src - words
     || dst_off > Array.length dst - words
  then invalid_arg "Frame: copy out of range";
  for i = 0 to words - 1 do
    Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
  done

let read_words t ~off ~dst ~dst_off ~words = copy t.data off dst dst_off words

let[@inline] write_words t ~off ~src ~src_off ~words =
  if t.cell.holders > 1 then shared_write t;
  copy src src_off t.data off words

let blit_from ~src ~dst =
  if Array.length src.data <> dst.nwords then invalid_arg "Frame.blit_from: size mismatch";
  if src.data != dst.data then begin
    drop dst;
    dst.data <- src.data;
    dst.cell <- src.cell;
    src.cell.holders <- src.cell.holders + 1
  end

let fill_zero t =
  if t.cell.holders > 1 then shared_write t
  else if t.cell.holders = 1 then Array.fill t.data 0 t.nwords 0
  else begin
    t.data <- Array.make t.nwords 0;
    t.cell <- { holders = 1 }
  end

let equal_data a b =
  a.data == b.data
  || (Array.length a.data = Array.length b.data && Array.for_all2 Int.equal a.data b.data)
