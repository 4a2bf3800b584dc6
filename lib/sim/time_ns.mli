(** Simulated time, in integer nanoseconds.

    All simulation timestamps and durations are plain [int] nanoseconds
    (63-bit, enough for ~292 simulated years), so arithmetic is ordinary
    integer arithmetic.  This module only provides named constructors and
    pretty-printing. *)

type t = int

val us : int -> t
(** [us x] is [x] microseconds. *)

val ms : int -> t
(** [ms x] is [x] milliseconds. *)

val s : int -> t
(** [s x] is [x] seconds. *)

val to_float_ms : t -> float
(** Duration in milliseconds, for reporting. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)

val to_string : t -> string
