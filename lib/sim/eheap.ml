(* Array-backed binary min-heap on (time, seq) keys.

   Packed mode: key = (time lsl seq_bits) lor seq, one immediate int per
   entry, so sift comparisons are single inline int compares.  Fallback mode
   (entered on the first key outside the packed ranges): parallel times[]
   and seqs[] arrays with lexicographic compares.  Both modes implement the
   identical total order, so the migration is invisible to callers. *)

let seq_bits = 26
let max_packed_seq = (1 lsl seq_bits) - 1
let max_packed_time = max_int lsr seq_bits

type 'a t = {
  mutable keys : int array;   (* packed mode; [||] once migrated *)
  mutable times : int array;  (* fallback mode; [||] while packed *)
  mutable seqs : int array;
  mutable data : 'a array;
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
    data = Array.make capacity dummy;
    size = 0;
    packed = true;
    dummy;
  }

let size t = t.size
let is_empty t = t.size = 0
let is_packed t = t.packed

let capacity t = Array.length t.data

let grow t =
  let cap = capacity t in
  let cap' = cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
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
   sifted key and payload threaded as arguments: a [let i = ref i]
   accumulator would box on every [add]/[pop] (no flambda), and the
   zero-alloc lint holds these to the same standard as the word paths
   they serve.  The keys are annotated [int] in all four loops: a
   top-level loop generalises an unannotated key to ['a], and ocamlopt
   then compiles each compare to a polymorphic C call ([caml_lessthan]),
   which CI's [nm] step rejects. *)

let rec sift_up_packed_loop (keys : int array) data i (k : int) v =
  let p = (i - 1) / 2 in
  if i > 0 && keys.(p) > k then begin
    keys.(i) <- keys.(p);
    data.(i) <- data.(p);
    sift_up_packed_loop keys data p k v
  end
  else begin
    keys.(i) <- k;
    data.(i) <- v
  end

let sift_up_packed t i = sift_up_packed_loop t.keys t.data i t.keys.(i) t.data.(i)

let rec sift_down_packed_loop (keys : int array) data n i (k : int) v =
  let l = (2 * i) + 1 in
  if l >= n then begin
    keys.(i) <- k;
    data.(i) <- v
  end
  else begin
    let c = if l + 1 < n && keys.(l + 1) < keys.(l) then l + 1 else l in
    if keys.(c) < k then begin
      keys.(i) <- keys.(c);
      data.(i) <- data.(c);
      sift_down_packed_loop keys data n c k v
    end
    else begin
      keys.(i) <- k;
      data.(i) <- v
    end
  end

let sift_down_packed t i =
  sift_down_packed_loop t.keys t.data t.size i t.keys.(i) t.data.(i)

(* --- fallback-mode sifts: lexicographic (time, seq) --- *)

let rec sift_up_fb_loop (times : int array) (seqs : int array) data i (tm : int) (sq : int) v =
  let p = (i - 1) / 2 in
  if i > 0 && (times.(p) > tm || (times.(p) = tm && seqs.(p) > sq)) then begin
    times.(i) <- times.(p);
    seqs.(i) <- seqs.(p);
    data.(i) <- data.(p);
    sift_up_fb_loop times seqs data p tm sq v
  end
  else begin
    times.(i) <- tm;
    seqs.(i) <- sq;
    data.(i) <- v
  end

let sift_up_fb t i =
  sift_up_fb_loop t.times t.seqs t.data i t.times.(i) t.seqs.(i) t.data.(i)

let rec sift_down_fb_loop (times : int array) (seqs : int array) data n i (tm : int) (sq : int)
    v =
  let l = (2 * i) + 1 in
  if l >= n then begin
    times.(i) <- tm;
    seqs.(i) <- sq;
    data.(i) <- v
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
      data.(i) <- data.(c);
      sift_down_fb_loop times seqs data n c tm sq v
    end
    else begin
      times.(i) <- tm;
      seqs.(i) <- sq;
      data.(i) <- v
    end
  end

let sift_down_fb t i =
  sift_down_fb_loop t.times t.seqs t.data t.size i t.times.(i) t.seqs.(i) t.data.(i)

let add t ~time ~seq v =
  if time < 0 || seq < 0 then invalid_arg "Eheap.add: negative key component";
  if t.size = capacity t then grow t;
  if t.packed && (time > max_packed_time || seq > max_packed_seq) then spill t;
  let i = t.size in
  t.size <- i + 1;
  t.data.(i) <- v;
  if t.packed then begin
    t.keys.(i) <- (time lsl seq_bits) lor seq;
    sift_up_packed t i
  end
  else begin
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    sift_up_fb t i
  end

let check_nonempty t op = if t.size = 0 then invalid_arg ("Eheap." ^ op ^ ": empty heap")

let min_time t =
  check_nonempty t "min_time";
  if t.packed then t.keys.(0) lsr seq_bits else t.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  if t.packed then t.keys.(0) land max_packed_seq else t.seqs.(0)

let pop t =
  check_nonempty t "pop";
  let v = t.data.(0) in
  let last = t.size - 1 in
  t.size <- last;
  t.data.(0) <- t.data.(last);
  t.data.(last) <- t.dummy;
  if t.packed then begin
    t.keys.(0) <- t.keys.(last);
    if last > 0 then sift_down_packed t 0
  end
  else begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    if last > 0 then sift_down_fb t 0
  end;
  v
