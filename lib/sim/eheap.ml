(* Array-backed binary min-heap on (time, seq) keys.

   Each heap position holds an entry's time in [times] and its slot in
   [slots], so a sift step moves two immediate ints and compares one.
   An entry's seq and payload sit in its slot of [seqs] and [data]:
   written once by [add] and never moved, so sifts pay no write barrier;
   the seq is read only to break a time tie.  [pop] resets the payload
   to [dummy], so the heap retains nothing it has returned.

   [slots] is a permutation of [0 .. capacity-1]: positions
   [0 .. size-1] are the live entries in heap order, and the tail
   [size .. capacity-1] is the stack of free slots, so [add] takes the
   slot at [slots.(size)] and [pop] returns the freed slot to the
   position the heap just vacated. *)

type 'a t = {
  mutable times : int array;  (* heap position -> time *)
  mutable slots : int array;  (* heap position -> slot; free tail *)
  mutable seqs : int array;  (* slot -> seq, never moved *)
  mutable data : 'a array;  (* slot -> payload, never moved *)
  mutable size : int;
  dummy : 'a;
}

let create ?(capacity = 1024) ~dummy () =
  let capacity = Int.max capacity 1 in
  {
    times = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    seqs = Array.make capacity 0;
    data = Array.make capacity dummy;
    size = 0;
    dummy;
  }

let size t = t.size
let is_empty t = t.size = 0

let capacity t = Array.length t.data

(* Only a full heap grows, so every old position and slot is live and
   the new slots [cap .. cap'-1] form the free tail in order. *)
let grow t =
  let cap = capacity t in
  let cap' = cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let slots = Array.init cap' Fun.id in
  Array.blit t.slots 0 slots 0 cap;
  t.slots <- slots;
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.data <- extend t.data t.dummy

(* The sifts are top-level tail recursions over the hole index, with the
   sifted time, seq and slot threaded as arguments: a [let i = ref i]
   accumulator would box on every [add]/[pop] (no flambda), and the
   zero-alloc lint holds these to the same standard as the word paths
   they serve.  Times and seqs are annotated [int]: a top-level loop
   generalises an unannotated key to ['a], and ocamlopt then compiles
   each compare to a polymorphic C call ([caml_lessthan]), which CI's
   [nm] step rejects. *)

(* The seq of the entry at heap position [i], read only on a time tie. *)
let[@inline] seq_at (seqs : int array) (slots : int array) i = seqs.(slots.(i))

let rec sift_up_loop (times : int array) seqs slots i (tm : int) (sq : int) (s : int) =
  let p = (i - 1) / 2 in
  if i > 0 && (times.(p) > tm || (times.(p) = tm && seq_at seqs slots p > sq)) then begin
    times.(i) <- times.(p);
    slots.(i) <- slots.(p);
    sift_up_loop times seqs slots p tm sq s
  end
  else begin
    times.(i) <- tm;
    slots.(i) <- s
  end

let rec sift_down_loop (times : int array) seqs slots n i (tm : int) (sq : int) (s : int) =
  let l = (2 * i) + 1 in
  if l >= n then begin
    times.(i) <- tm;
    slots.(i) <- s
  end
  else begin
    let c =
      if
        l + 1 < n
        && (times.(l + 1) < times.(l)
           || (times.(l + 1) = times.(l) && seq_at seqs slots (l + 1) < seq_at seqs slots l))
      then l + 1
      else l
    in
    if times.(c) < tm || (times.(c) = tm && seq_at seqs slots c < sq) then begin
      times.(i) <- times.(c);
      slots.(i) <- slots.(c);
      sift_down_loop times seqs slots n c tm sq s
    end
    else begin
      times.(i) <- tm;
      slots.(i) <- s
    end
  end

let add t ~time ~seq v =
  if time < 0 || seq < 0 then invalid_arg "Eheap.add: negative key component";
  if t.size = capacity t then grow t;
  let i = t.size in
  let s = t.slots.(i) in
  t.size <- i + 1;
  t.seqs.(s) <- seq;
  t.data.(s) <- v;
  sift_up_loop t.times t.seqs t.slots i time seq s

let check_nonempty t op = if t.size = 0 then invalid_arg ("Eheap." ^ op ^ ": empty heap")

let min_time t =
  check_nonempty t "min_time";
  t.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  t.seqs.(t.slots.(0))

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
  if last > 0 then
    sift_down_loop t.times t.seqs slots last 0 t.times.(last) t.seqs.(s_last) s_last;
  v
