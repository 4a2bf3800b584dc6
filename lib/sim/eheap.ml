(* Array-backed binary min-heap on (time, seq) keys.

   Packed mode: key = (time lsl seq_bits) lor seq, one immediate int per
   entry, so sift comparisons are single inline int compares.  Fallback mode
   (entered on the first key outside the packed ranges): parallel times[]
   and seqs[] arrays with lexicographic compares.  Both modes implement the
   identical total order, so the migration is invisible to callers.

   Payloads never move.  Each sits in a slot of [data], written once by
   [add] and reset to [dummy] once by [pop]; the heap itself orders slot
   indices, held in [slots] beside the keys, so every sift step moves
   immediate ints only and pays no write barrier.  [slots] is a
   permutation of [0 .. capacity-1]: positions [0 .. size-1] are the live
   entries in heap order, and the tail [size .. capacity-1] is the stack
   of free slots, so [add] takes the slot at [slots.(size)] and [pop]
   returns the freed slot to the position the heap just vacated. *)

let seq_bits = 26
let max_packed_seq = (1 lsl seq_bits) - 1
let max_packed_time = max_int lsr seq_bits

type 'a t = {
  mutable keys : int array;   (* packed mode; [||] once migrated *)
  mutable times : int array;  (* fallback mode; [||] while packed *)
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> data slot; free tail *)
  mutable data : 'a array;    (* indexed by slot, never moved *)
  mutable size : int;
  mutable packed : bool;
  dummy : 'a;
}

let create ?(capacity = 1024) ~dummy () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    times = [||];
    seqs = [||];
    slots = Array.init capacity Fun.id;
    data = Array.make capacity dummy;
    size = 0;
    packed = true;
    dummy;
  }

let size t = t.size
let is_empty t = t.size = 0
let is_packed t = t.packed

let capacity t = Array.length t.data

(* Only a full heap grows, so every old slot is live and the new ones
   [cap .. cap'-1] form the free tail in order. *)
let grow t =
  let cap = capacity t in
  let cap' = cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  let slots = Array.init cap' Fun.id in
  Array.blit t.slots 0 slots 0 cap;
  t.slots <- slots;
  t.data <- extend t.data t.dummy;
  if t.packed then t.keys <- extend t.keys 0
  else begin
    t.times <- extend t.times 0;
    t.seqs <- extend t.seqs 0
  end

(* Migrate every packed key into the two-array representation. *)
let spill t =
  let cap = capacity t in
  let times = Array.make cap 0 and seqs = Array.make cap 0 in
  for i = 0 to t.size - 1 do
    let k = t.keys.(i) in
    times.(i) <- k lsr seq_bits;
    seqs.(i) <- k land max_packed_seq
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.keys <- [||];
  t.packed <- false

(* --- packed-mode sifts: one int compare per step ---

   The loops are top-level tail recursions over the hole index, with the
   sifted key and slot threaded as arguments: a [let i = ref i]
   accumulator would box on every [add]/[pop] (no flambda), and the
   zero-alloc lint holds these to the same standard as the word paths
   they serve.  Keys and slots are annotated [int] in all four loops: a
   top-level loop generalises an unannotated key to ['a], and ocamlopt
   then compiles each compare to a polymorphic C call ([caml_lessthan]),
   which CI's [nm] step rejects. *)

let rec sift_up_packed_loop (keys : int array) (slots : int array) i (k : int) (s : int) =
  let p = (i - 1) / 2 in
  if i > 0 && keys.(p) > k then begin
    keys.(i) <- keys.(p);
    slots.(i) <- slots.(p);
    sift_up_packed_loop keys slots p k s
  end
  else begin
    keys.(i) <- k;
    slots.(i) <- s
  end

let rec sift_down_packed_loop (keys : int array) (slots : int array) n i (k : int) (s : int) =
  let l = (2 * i) + 1 in
  if l >= n then begin
    keys.(i) <- k;
    slots.(i) <- s
  end
  else begin
    let c = if l + 1 < n && keys.(l + 1) < keys.(l) then l + 1 else l in
    if keys.(c) < k then begin
      keys.(i) <- keys.(c);
      slots.(i) <- slots.(c);
      sift_down_packed_loop keys slots n c k s
    end
    else begin
      keys.(i) <- k;
      slots.(i) <- s
    end
  end

(* --- fallback-mode sifts: lexicographic (time, seq) --- *)

let rec sift_up_fb_loop (times : int array) (seqs : int array) (slots : int array) i (tm : int)
    (sq : int) (s : int) =
  let p = (i - 1) / 2 in
  if i > 0 && (times.(p) > tm || (times.(p) = tm && seqs.(p) > sq)) then begin
    times.(i) <- times.(p);
    seqs.(i) <- seqs.(p);
    slots.(i) <- slots.(p);
    sift_up_fb_loop times seqs slots p tm sq s
  end
  else begin
    times.(i) <- tm;
    seqs.(i) <- sq;
    slots.(i) <- s
  end

let rec sift_down_fb_loop (times : int array) (seqs : int array) (slots : int array) n i
    (tm : int) (sq : int) (s : int) =
  let l = (2 * i) + 1 in
  if l >= n then begin
    times.(i) <- tm;
    seqs.(i) <- sq;
    slots.(i) <- s
  end
  else begin
    let c =
      if
        l + 1 < n
        && (times.(l + 1) < times.(l)
           || (times.(l + 1) = times.(l) && seqs.(l + 1) < seqs.(l)))
      then l + 1
      else l
    in
    if times.(c) < tm || (times.(c) = tm && seqs.(c) < sq) then begin
      times.(i) <- times.(c);
      seqs.(i) <- seqs.(c);
      slots.(i) <- slots.(c);
      sift_down_fb_loop times seqs slots n c tm sq s
    end
    else begin
      times.(i) <- tm;
      seqs.(i) <- sq;
      slots.(i) <- s
    end
  end

let add t ~time ~seq v =
  if time < 0 || seq < 0 then invalid_arg "Eheap.add: negative key component";
  if t.size = capacity t then grow t;
  if t.packed && (time > max_packed_time || seq > max_packed_seq) then spill t;
  let i = t.size in
  let s = t.slots.(i) in
  t.size <- i + 1;
  t.data.(s) <- v;
  if t.packed then sift_up_packed_loop t.keys t.slots i ((time lsl seq_bits) lor seq) s
  else sift_up_fb_loop t.times t.seqs t.slots i time seq s

let check_nonempty t op = if t.size = 0 then invalid_arg ("Eheap." ^ op ^ ": empty heap")

let min_time t =
  check_nonempty t "min_time";
  if t.packed then t.keys.(0) lsr seq_bits else t.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  if t.packed then t.keys.(0) land max_packed_seq else t.seqs.(0)

(* The root's slot is freed onto the tail at [last], the position the
   heap shrinks away from; the last entry sifts down from the root. *)
let pop t =
  check_nonempty t "pop";
  let slots = t.slots in
  let s = slots.(0) in
  let v = t.data.(s) in
  t.data.(s) <- t.dummy;
  let last = t.size - 1 in
  t.size <- last;
  let s_last = slots.(last) in
  slots.(last) <- s;
  if last > 0 then begin
    if t.packed then sift_down_packed_loop t.keys slots last 0 t.keys.(last) s_last
    else sift_down_fb_loop t.times t.seqs slots last 0 t.times.(last) t.seqs.(last) s_last
  end;
  v
