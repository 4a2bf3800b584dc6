(** The 64-bit FNV-1a fold behind every run fingerprint.

    Each folded [int] is widened to [Int64], xored into the state and
    multiplied by the FNV prime; {!to_hex} renders the state as 16
    lowercase hex digits.  The histogram, serving and hosted-kernel
    fingerprints are all this exact fold, so pinned values stay
    byte-identical. *)

type t

val create : unit -> t
(** A fresh state at the FNV offset basis. *)

val int : t -> int -> unit
val string : t -> string -> unit
(** Fold each character code of the string, in order. *)

val to_hex : t -> string
