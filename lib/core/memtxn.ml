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

let data_words = function
  | Read _ | Write _ | Rmw _ -> 1
  | Block_read { len; _ } | Block_write { len; _ } -> Int.max len 0
  | Stride_read { count; elem_words; _ } | Stride_write { count; elem_words; _ } ->
    Int.max (count * elem_words) 0

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
  (* the cursor's position: words of the current element after this
     chunk, elements after the current one, and the shape *)
  mutable k_left : int;
  mutable k_elems : int;
  mutable k_elem_words : int;
  mutable k_stride : int;
  mutable k_page_words : int;
  mutable k_page_shift : int;  (* {!Phys_mem.page_shift} of [k_page_words] *)
}

let make_chunk () =
  {
    c_vaddr = 0; c_index = 0; c_words = 0;
    k_left = 0; k_elems = 0; k_elem_words = 0; k_stride = 0; k_page_words = 1;
    k_page_shift = 0;
  }

(* Point [c] at the longest run from [vaddr] that stays inside one page and
   within the [words] the current element has left. *)
let cut c ~vaddr ~index ~words =
  let pw = c.k_page_words in
  let off = Platinum_phys.Phys_mem.offset ~shift:c.k_page_shift ~page_words:pw vaddr in
  let len = Int.min (pw - off) words in
  c.c_vaddr <- vaddr;
  c.c_index <- index;
  c.c_words <- len;
  c.k_left <- words - len

let start c ~page_words ~vaddr ~index ~elems ~elem_words ~stride =
  if elems <= 0 || elem_words <= 0 then false
  else begin
    if page_words <> c.k_page_words then
      c.k_page_shift <- Platinum_phys.Phys_mem.page_shift page_words;
    c.k_page_words <- page_words;
    c.k_elems <- elems - 1;
    c.k_elem_words <- elem_words;
    c.k_stride <- stride;
    cut c ~vaddr ~index ~words:elem_words;
    true
  end

let first c ~page_words txn =
  match txn with
  | Read { vaddr } | Write { vaddr; _ } | Rmw { vaddr; _ } ->
    start c ~page_words ~vaddr ~index:0 ~elems:1 ~elem_words:1 ~stride:1
  | Block_read { vaddr; dst_off = off; len; _ } | Block_write { vaddr; src_off = off; len; _ }
    ->
    start c ~page_words ~vaddr ~index:off ~elems:1 ~elem_words:len ~stride:len
  | Stride_read { vaddr; dst_off = off; count; elem_words; stride; _ }
  | Stride_write { vaddr; src_off = off; count; elem_words; stride; _ } ->
    start c ~page_words ~vaddr ~index:off ~elems:count ~elem_words ~stride

(* Element [k+1] starts [stride] words after element [k]; its slice index
   follows element [k]'s last word. *)
let next c =
  let vaddr = c.c_vaddr + c.c_words and index = c.c_index + c.c_words in
  if c.k_left > 0 then begin
    cut c ~vaddr ~index ~words:c.k_left;
    true
  end
  else if c.k_elems > 0 then begin
    c.k_elems <- c.k_elems - 1;
    cut c ~vaddr:(vaddr - c.k_elem_words + c.k_stride) ~index ~words:c.k_elem_words;
    true
  end
  else false
