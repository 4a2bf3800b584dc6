(* The 64-bit state sits in 8 bytes, so reading and advancing it box
   nothing: a draw inlined into its caller allocates nothing. *)
type t = Bytes.t

let[@inline] state t = Bytes.get_int64_ne t 0
let[@inline] set t s = Bytes.set_int64_ne t 0 s
let create seed = let t = Bytes.create 8 in set t seed; t
let copy = Bytes.copy

(* splitmix64 (Steele, Lea, Flood 2014): a full-period 64-bit generator whose
   state update is a simple additive counter, making [split] trivially
   sound. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (state t) golden_gamma in
  set t s;
  mix s

let split t = create (next_int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 1) land max_int in
  bits mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 significant bits, as in the stdlib. *)
let[@inline] scale bound z =
  bound *. (float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) /. 9007199254740992.0)

let[@inline] float t bound = scale bound (next_int64 t)
let[@inline] peek_float t bound = scale bound (mix (Int64.add (state t) golden_gamma))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
