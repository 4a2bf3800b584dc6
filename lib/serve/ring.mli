(** Request rings in coherent pages — the shared-memory transport.

    A ring is a fixed number of fixed-size slots laid out in coherent
    memory and operated on exclusively through {!Platinum_kernel.Api}
    word accesses ([read]/[write]/[rmw]), so the coherent memory system
    underneath is free to replicate, migrate or freeze the pages — and
    the kernel's coalescing fast path (DESIGN.md §4g) engages on the
    payload word runs exactly as it would for any application data.

    Producers claim slots with an atomic fetch-and-add on the ticket
    word (the Butterfly's atomic network operation, the same primitive
    the paper builds locks on); a full ring blocks the producer in a
    bounded-backoff poll loop — backpressure, never loss.  The single
    consumer pops tickets in strictly increasing order, so the ring is
    FIFO per ring even with many producers racing.  Call these only from
    inside simulated threads. *)

type t

val create : slots:int -> slot_words:int -> unit -> t
(** Allocate and initialise a ring of [slots] slots of [slot_words]
    payload words each, in whole coherent pages of the default zone.  A
    producer that finds the ring full, or the consumer that finds it
    empty, polls every 2 µs.  [slots] and [slot_words] must be
    positive. *)

val base : t -> int
(** Base virtual word address of the ring's pages (e.g. to freeze them
    mid-stream with {!Platinum_kernel.Api.advise}). *)

val words : t -> int
(** Total words occupied, header included (always a whole number of
    pages). *)

val slots : t -> int
val slot_words : t -> int

val push : t -> int array -> unit
(** Publish one request (exactly [slot_words] words;
    [Invalid_argument] otherwise).  Multi-producer safe: the slot is
    claimed by fetch-and-add.  Blocks (polling) while the ring is full —
    no request is ever dropped. *)

val pop : t -> int array
(** Consume the oldest request (single consumer).  Blocks (polling) while
    the ring is empty.  Requests come out in exactly the ticket order
    they were claimed in. *)

val pending : t -> int
(** Tickets claimed but not yet consumed (reads the shared counters). *)
