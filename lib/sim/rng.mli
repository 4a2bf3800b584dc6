(** Deterministic pseudo-random numbers (splitmix64).

    The simulator must be reproducible bit-for-bit, so all randomness flows
    through explicitly-seeded generators rather than [Stdlib.Random]. *)

type t

val create : int64 -> t
(** A fresh generator seeded with the given value.  Equal seeds produce
    equal streams. *)

val split : t -> t
(** A new generator whose stream is independent of (and deterministically
    derived from) the parent's current state.  Advances the parent. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val peek_float : t -> float -> float
(** What [float t bound] would return next; [t] does not advance. *)
