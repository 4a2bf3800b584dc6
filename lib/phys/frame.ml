(* Replicas share one buffer; [cell.holders] counts them.  A correct run
   never writes a shared buffer (frame.mli). *)
type cell = { mutable holders : int }

type t = {
  frame_module : int;
  frame_index : int;
  nwords : int;
  mutable data : Bytes.t;  (* tagged words (frame.mli); empty when unbacked *)
  mutable cell : cell;
  mutable owner : int;  (* owning cpage id, or -1 when free *)
}

let () = assert (Sys.word_size = 64)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* One blind memcpy of bytes for both directions (frame_stubs.c), after
   the range checks below. *)
external read_raw :
  Bytes.t -> (int[@untagged]) -> int array -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "platinum_frame_copy_byte" "platinum_frame_copy" [@@noalloc]
external write_raw :
  int array -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "platinum_frame_copy_byte" "platinum_frame_copy" [@@noalloc]

(* The cell of a frame with no buffer.  Never written: counts change only
   on cells with more than one holder, or on a backed source's. *)
let unbacked = { holders = 0 }

let create ~mem_module ~index ~words =
  if words <= 0 then invalid_arg "Frame.create: words must be positive";
  { frame_module = mem_module; frame_index = index; nwords = words;
    data = Bytes.empty; cell = unbacked; owner = -1 }

let mem_module t = t.frame_module
let index t = t.frame_index
let words t = t.nwords
let owner t = if t.owner < 0 then None else Some t.owner

(* Drop a shared buffer without allocating; the other holders keep it. *)
let drop t =
  if t.cell.holders > 1 then begin
    t.cell.holders <- t.cell.holders - 1;
    t.data <- Bytes.empty;
    t.cell <- unbacked
  end

let set_owner t = function
  | None -> drop t; t.owner <- -1
  | Some id ->
    if id < 0 then invalid_arg "Frame.set_owner: negative cpage id";
    t.owner <- id

exception Shared_write of { mem_module : int; index : int; owner : int }
exception Unbacked_read of { mem_module : int; index : int; owner : int }

let () =
  Printexc.register_printer (function
    | Shared_write { mem_module; index; owner } ->
      Some
        (Printf.sprintf
           "cpage %d: shared-write (§3.2): write to frame %d on module %d while another \
            live frame shares its buffer"
           owner index mem_module)
    | Unbacked_read { mem_module; index; owner } ->
      Some (Printf.sprintf "cpage %d: unbacked-frame-read: access to frame %d on module %d, \
                            which has no buffer" owner index mem_module)
    | _ -> None)

(* Out of line, so [set] inlines. *)
let[@inline never] shared_write t =
  raise (Shared_write { mem_module = t.frame_module; index = t.frame_index; owner = t.owner })

(* Every access's range check fails here, in a tail call: nothing spills. *)
let[@inline never] refuse t msg =
  if Bytes.length t.data = 0 then
    raise (Unbacked_read { mem_module = t.frame_module; index = t.frame_index; owner = t.owner })
  else raise (Invalid_argument msg)

let[@inline] backed t = Bytes.length t.data lsr 3

let[@inline] bad_range t off arr arr_off words =
  words < 0 || off < 0 || arr_off < 0 || off > backed t - words
  || arr_off > Array.length arr - words

let[@inline] get t off =
  if off < 0 || off >= backed t then refuse t "index out of bounds"
  else Int64.to_int (Int64.shift_right (get64 t.data (off lsl 3)) 1)

let[@inline] set t off v =
  if t.cell.holders > 1 then shared_write t
  else if off < 0 || off >= backed t then refuse t "index out of bounds"
  else set64 t.data (off lsl 3) (Int64.logor (Int64.shift_left (Int64.of_int v) 1) 1L)

(* Eight words per iteration, then the tail: one safepoint poll and one
   index computation per block instead of per word (frame.mli).  [raise],
   not [invalid_arg]: across a call that may return, ocamlopt spills the
   arguments and reloads them in every iteration. *)
let copy_words (src : int array) src_off (dst : int array) dst_off words =
  if words < 0 || src_off < 0 || dst_off < 0 || src_off > Array.length src - words
     || dst_off > Array.length dst - words
  then raise (Invalid_argument "Frame: copy out of range");
  let blocks = words lsr 3 in
  for b = 0 to blocks - 1 do
    let s = src_off + (b lsl 3) and d = dst_off + (b lsl 3) in
    Array.unsafe_set dst d (Array.unsafe_get src s);
    Array.unsafe_set dst (d + 1) (Array.unsafe_get src (s + 1));
    Array.unsafe_set dst (d + 2) (Array.unsafe_get src (s + 2));
    Array.unsafe_set dst (d + 3) (Array.unsafe_get src (s + 3));
    Array.unsafe_set dst (d + 4) (Array.unsafe_get src (s + 4));
    Array.unsafe_set dst (d + 5) (Array.unsafe_get src (s + 5));
    Array.unsafe_set dst (d + 6) (Array.unsafe_get src (s + 6));
    Array.unsafe_set dst (d + 7) (Array.unsafe_get src (s + 7))
  done;
  for i = blocks lsl 3 to words - 1 do
    Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
  done

let read_words t ~off ~dst ~dst_off ~words =
  if bad_range t off dst dst_off words then refuse t "Frame: copy out of range"
  else read_raw t.data (off lsl 3) dst (dst_off lsl 3) (words lsl 3)

let[@inline] write_words t ~off ~src ~src_off ~words =
  if t.cell.holders > 1 then shared_write t
  else if bad_range t off src src_off words then refuse t "Frame: copy out of range"
  else write_raw src (src_off lsl 3) t.data (off lsl 3) (words lsl 3)

let blit_from ~src ~dst =
  if backed src <> dst.nwords then invalid_arg "Frame.blit_from: size mismatch";
  if src.data != dst.data then begin
    drop dst;
    dst.data <- src.data;
    dst.cell <- src.cell;
    src.cell.holders <- src.cell.holders + 1
  end

(* [1L] is a tagged 0; a raw 0 read into a heap array is a null pointer. *)
let fill_zero t =
  if t.cell.holders > 1 then shared_write t
  else begin
    if t.cell.holders = 0 then begin
      t.data <- Bytes.create (t.nwords lsl 3);
      t.cell <- { holders = 1 }
    end;
    for i = 0 to t.nwords - 1 do set64 t.data (i lsl 3) 1L done
  end

let equal_data a b = a.data == b.data || Bytes.equal a.data b.data
