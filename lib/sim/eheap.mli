(** Array-backed binary min-heap specialized to [(time, seq)] integer keys.

    This is the engine's event queue.  A pairing heap (the order oracle
    kept in the tests) allocates a node per insert and chases pointers on
    every delete-min; this heap keeps keys and payloads in flat arrays, so
    steady-state insert/pop allocates nothing and the hot comparison is a
    single immediate-[int] compare.

    Keys are pairs [(time, seq)] ordered lexicographically; [seq] must be
    unique per live entry (the engine's monotone sequence number), which
    makes the order total and pops deterministic.  Both components may
    take any non-negative [int]: the engine's tagged sequence numbers and
    {!Shard}'s [(node lsl 36) lor seq] merge keys share one layout.

    Each heap position holds a [(time, slot)] pair, so a sift step moves
    two immediate ints and pays no write barrier.  An entry's [seq] and
    payload sit in its slot, written once by {!add} and never moved; the
    [seq] is read only when two times tie, and {!pop} resets the payload
    slot to the [dummy].  The unused tail of the slot array is the stack
    of free slots.  Space: four words per entry of capacity. *)

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
