type t =
  | Read of { vaddr : int }
  | Write of { vaddr : int; value : int }
  | Rmw of { vaddr : int; f : int -> int }
  | Block_read of { vaddr : int; dst : int array; dst_off : int; len : int }
  | Block_write of { vaddr : int; src : int array; src_off : int; len : int }
  | Stride_read of
      { vaddr : int; dst : int array; dst_off : int; count : int; elem_words : int; stride : int }
  | Stride_write of
      { vaddr : int; src : int array; src_off : int; count : int; elem_words : int; stride : int }

type result =
  | Unit
  | Word of int

let data_words = function
  | Read _ | Write _ | Rmw _ -> 1
  | Block_read { len; _ } | Block_write { len; _ } -> max len 0
  | Stride_read { count; elem_words; _ } | Stride_write { count; elem_words; _ } ->
    max (count * elem_words) 0

let validate_slice what buf ~off ~len =
  if len < 0 then invalid_arg (what ^ ": negative length");
  if off < 0 || off > Array.length buf - len then invalid_arg (what ^ ": slice out of range")

let validate_stride what buf ~off ~count ~elem_words ~stride =
  if count < 0 then invalid_arg (what ^ ": negative element count");
  if elem_words < 1 then invalid_arg (what ^ ": elements must be at least one word");
  if stride < elem_words then invalid_arg (what ^ ": stride overlaps elements");
  validate_slice what buf ~off ~len:(count * elem_words)

let validate = function
  | Read _ | Write _ | Rmw _ -> ()
  | Block_read { dst; dst_off; len; _ } -> validate_slice "Memtxn.Block_read" dst ~off:dst_off ~len
  | Block_write { src; src_off; len; _ } ->
    validate_slice "Memtxn.Block_write" src ~off:src_off ~len
  | Stride_read { dst; dst_off; count; elem_words; stride; _ } ->
    validate_stride "Memtxn.Stride_read" dst ~off:dst_off ~count ~elem_words ~stride
  | Stride_write { src; src_off; count; elem_words; stride; _ } ->
    validate_stride "Memtxn.Stride_write" src ~off:src_off ~count ~elem_words ~stride

type chunk = {
  mutable c_vaddr : int;
  mutable c_index : int;
  mutable c_words : int;
}

type scratch = {
  s_chunk : chunk;  (* the one chunk record iter_chunks refills *)
  s_word : int array;  (* one-word data buffer for word transactions *)
}

let make_scratch () = { s_chunk = { c_vaddr = 0; c_index = 0; c_words = 0 }; s_word = [| 0 |] }

(* Split the contiguous run [vaddr, vaddr + words) at page boundaries,
   refilling the caller's one chunk record per run. *)
let iter_run ~page_words ~vaddr ~index ~words ch f =
  let pos = ref 0 in
  while !pos < words do
    let va = vaddr + !pos in
    let off = va mod page_words in
    let len = min (page_words - off) (words - !pos) in
    ch.c_vaddr <- va;
    ch.c_index <- index + !pos;
    ch.c_words <- len;
    f ch;
    pos := !pos + len
  done

let iter_chunks ?scratch ~page_words txn f =
  let ch =
    match scratch with
    | Some s -> s.s_chunk
    | None -> { c_vaddr = 0; c_index = 0; c_words = 0 }
  in
  match txn with
  | Read { vaddr } | Write { vaddr; _ } | Rmw { vaddr; _ } ->
    ch.c_vaddr <- vaddr;
    ch.c_index <- 0;
    ch.c_words <- 1;
    f ch
  | Block_read { vaddr; dst_off = off; len; _ } | Block_write { vaddr; src_off = off; len; _ }
    ->
    iter_run ~page_words ~vaddr ~index:off ~words:(max len 0) ch f
  | Stride_read { vaddr; dst_off = off; count; elem_words; stride; _ }
  | Stride_write { vaddr; src_off = off; count; elem_words; stride; _ } ->
    for k = 0 to count - 1 do
      iter_run ~page_words ~vaddr:(vaddr + (k * stride)) ~index:(off + (k * elem_words))
        ~words:elem_words ch f
    done

let iter_pages ~page_words txn f =
  let last = ref min_int in
  iter_chunks ~page_words txn (fun c ->
      let vpage = c.c_vaddr / page_words in
      if vpage <> !last then begin
        last := vpage;
        f vpage
      end)

let run ~page_words ~now ?scratch txn ~chunk_cost =
  validate txn;
  let data =
    match txn with
    | Read _ | Write _ | Rmw _ ->
      let word = match scratch with Some s -> s.s_word | None -> [| 0 |] in
      word.(0) <- (match txn with Write { value; _ } -> value | _ -> 0);
      word
    | Block_read { dst; _ } | Stride_read { dst; _ } -> dst
    | Block_write { src; _ } | Stride_write { src; _ } -> src
  in
  let lat = ref 0 in
  iter_chunks ?scratch ~page_words txn (fun chunk ->
      lat := !lat + chunk_cost ~now:(now + !lat) ~data chunk);
  let result =
    match txn with
    | Read _ | Rmw _ -> Word data.(0)
    | Write _ | Block_read _ | Block_write _ | Stride_read _ | Stride_write _ -> Unit
  in
  (result, !lat)
