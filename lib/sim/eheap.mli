(** Array-backed binary min-heap specialized to [(time, seq)] integer keys.

    This is the engine's event queue.  A pairing heap (the order oracle
    kept in the tests) allocates a node per insert and chases pointers on
    every delete-min; this heap keeps keys and payloads in flat arrays, so
    steady-state insert/pop allocates nothing and the hot comparison is a
    single immediate-[int] compare.

    Keys are pairs [(time, seq)] ordered lexicographically; [seq] must be
    unique per live entry (the engine's monotone sequence number), which
    makes the order total and pops deterministic.  While both components
    fit their packed ranges the key lives as one tagged [int]
    ([time lsl seq_bits lor seq]); the first out-of-range insert migrates
    the whole heap to a two-array [(time, seq)] fallback with identical
    ordering, so correctness never depends on the ranges.

    Payloads never move.  Each sits in its own slot of a payload array,
    written once by {!add} and reset to the [dummy] once by {!pop}; the
    sifts reorder keys and an [int] array of slot indices beside them, so
    in both modes a sift step moves immediate ints only and pays no write
    barrier.  The unused tail of the slot-index array is the stack of free
    slots.  Space: three words per entry of capacity while packed, four in
    the fallback mode. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] pre-sizes the arrays for [capacity] entries (default
    1024; grows by doubling).  [dummy] fills vacated payload slots so the
    heap never retains popped values: a payload is unreachable from the
    heap as soon as {!pop} returns it. *)

val size : 'a t -> int
(** O(1). *)

val is_empty : 'a t -> bool

val add : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert a payload keyed [(time, seq)].  Both components must be
    non-negative. *)

val min_time : 'a t -> int
(** Time component of the smallest key.  Raises [Invalid_argument] when
    empty. *)

val min_seq : 'a t -> int
(** Sequence component of the smallest key.  Raises [Invalid_argument]
    when empty. *)

val pop : 'a t -> 'a
(** Remove and return the payload with the smallest key.  Raises
    [Invalid_argument] when empty. *)

val is_packed : 'a t -> bool
(** Whether keys currently live in the single-[int] packed representation
    (exposed for tests). *)

val max_packed_time : int
(** Largest [time] representable in packed mode (exposed for tests). *)

val max_packed_seq : int
(** Largest [seq] representable in packed mode (exposed for tests). *)
