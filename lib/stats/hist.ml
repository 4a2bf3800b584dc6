(* HDR-style log-bucketed histogram.  Values are split as
   [bucket = significant_bits v - p] (0 when v fits in p bits) and
   [sub = v lsr bucket]; the flat bin index is [bucket * 2^p + sub].
   Bucket 0 is exact; every later bucket has 2^(p-1) live sub-buckets of
   width 2^bucket, so the relative bin width never exceeds 2^(1-p).  One
   [int array] covers the whole non-negative int range, which keeps
   [record] a pure index computation (no allocation, no branching on
   capacity) and makes [merge] a bucket-wise sum. *)

module Fnv = Platinum_sim.Fnv

type t = {
  precision : int;  (* p: sub-bucket bits *)
  sub : int;  (* 2^p *)
  counts : int array;
  mutable count : int;
  mutable total : int;
  mutable min_v : int;  (* exact; max_int when empty *)
  mutable max_v : int;  (* exact; 0 when empty *)
}

let create ?(precision_bits = 7) () =
  if precision_bits < 1 || precision_bits > 14 then
    invalid_arg (Printf.sprintf "Hist.create: precision_bits %d not in [1, 14]" precision_bits);
  let sub = 1 lsl precision_bits in
  {
    precision = precision_bits;
    sub;
    (* buckets 0 .. 63 - p cover every non-negative OCaml int *)
    counts = Array.make ((64 - precision_bits) * sub) 0;
    count = 0;
    total = 0;
    min_v = max_int;
    max_v = 0;
  }

(* Significant bits of a non-negative int; tail-recursive so the hot
   [record] path allocates nothing (no boxed loop counter). *)
let rec bits_above n acc = if n = 0 then acc else bits_above (n lsr 1) (acc + 1)

let index_of t v =
  if v < t.sub then v
  else begin
    let bucket = bits_above v 0 - t.precision in
    (bucket * t.sub) + (v lsr bucket)
  end

(* Inclusive upper bound of the values binned at [index]. *)
let bin_upper t index =
  let bucket = index / t.sub and sub = index mod t.sub in
  if bucket = 0 then sub else (((sub + 1) lsl bucket) - 1)

let record_n t v n =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = index_of t v in
    t.counts.(i) <- t.counts.(i) + n;
    t.count <- t.count + n;
    t.total <- t.total + (n * v);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v 1
let count t = t.count
let min_value t = t.min_v
let max_value t = t.max_v
let total t = t.total
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count

let percentile t q =
  if t.count = 0 then 0
  else if q >= 1.0 then t.max_v
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else if rank > t.count then t.count else rank in
    let n = Array.length t.counts in
    let rec walk i cum =
      if i >= n then t.max_v
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= rank then Int.min (bin_upper t i) t.max_v else walk (i + 1) cum
      end
    in
    walk 0 0
  end

let p50 t = percentile t 0.50
let p95 t = percentile t 0.95
let p99 t = percentile t 0.99
let p999 t = percentile t 0.999

let equivalent_range t v =
  let v = if v < 0 then 0 else v in
  if v < t.sub then 1 else 1 lsl (bits_above v 0 - t.precision)

let merge ~into src =
  if into.precision <> src.precision then
    invalid_arg
      (Printf.sprintf "Hist.merge: precision mismatch (%d vs %d)" into.precision src.precision);
  Array.iteri (fun i c -> if c <> 0 then into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.count <- into.count + src.count;
  into.total <- into.total + src.total;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let copy t =
  {
    precision = t.precision;
    sub = t.sub;
    counts = Array.copy t.counts;
    count = t.count;
    total = t.total;
    min_v = t.min_v;
    max_v = t.max_v;
  }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.total <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let fingerprint t =
  let h = Fnv.create () in
  let mixin = Fnv.int h in
  mixin t.precision;
  mixin t.count;
  mixin t.total;
  mixin t.min_v;
  mixin t.max_v;
  Array.iteri
    (fun i c ->
      if c <> 0 then begin
        mixin i;
        mixin c
      end)
    t.counts;
  Fnv.to_hex h
