(** User-level synchronization, built from atomic memory operations.

    Exactly what Butterfly programs did: spin locks and event counts are
    ordinary words in coherent memory, manipulated with atomic
    read-modify-write network operations.  Their pages therefore interact
    with the replication policy — actively contended synchronization words
    get their pages frozen, which is the §4.2 anecdote — so allocate them
    in their own zone, away from data. *)

val spin_until : (unit -> bool) -> unit
(** Poll [pred] with exponential backoff, 1 µs doubling up to 100 µs.
    Each poll really reads simulated memory if [pred] does. *)

module Spinlock : sig
  type t

  val make : ?zone:Eff.zone_id -> unit -> t
  (** Allocate the lock word (in the default zone unless told otherwise). *)

  val of_addr : int -> t
  val addr : t -> int
  val with_lock : t -> (unit -> 'a) -> 'a
  (** Run the function holding the lock, and release it however the
      function returns.  Acquiring is test-and-set with read-spin and
      backoff while held. *)
end

module Event_count : sig
  type t
  (** A monotonically increasing counter (the Butterfly's event counts). *)

  val make : ?zone:Eff.zone_id -> unit -> t
  val of_addr : int -> t
  val addr : t -> int
  val advance : t -> unit
  val current : t -> int
  val await : t -> int -> unit
  (** Spin (with backoff) until the count reaches the target. *)
end

module Barrier : sig
  type t
  (** A central sense-reversing barrier for a fixed number of parties. *)

  val make : ?zone:Eff.zone_id -> parties:int -> unit -> t

  val of_addrs : parties:int -> count_addr:int -> gen_addr:int -> t
  (** A barrier on two words the caller placed.  Put them on separate
      pages: then arrivals do not invalidate the spinners' copies of the
      generation word, and only the release write does. *)

  val wait : t -> unit
end
