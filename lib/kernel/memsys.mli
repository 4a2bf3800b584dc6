(** The memory-system interface the kernel schedules against.

    Application threads issue abstract memory transactions; a backend turns
    each into data and a latency.  Two backends exist: the PLATINUM coherent
    memory ({!Platsys}) and the bus-based UMA machine with per-processor
    caches used for the Figure 5 comparison ({!Platinum_cache.Uma_sys}).
    Both implement the one entry point [submit], which accepts any
    {!Platinum_core.Memtxn.t} — a word read or write, an atomic
    read-modify-write, a contiguous block, or a strided scatter/gather —
    and walk it with the one {!Platinum_core.Memtxn.chunk} cursor.

    Addresses are virtual *word* addresses (the Butterfly's unit of access
    is the 32-bit word). *)

type advice = Platinum_core.Coherent.advice = Freeze | Thaw | Home of int
(** Placement advice, the coherent layer's own variant
    ({!Platinum_core.Coherent.advice}). *)

type remote = {
  try_remote :
    now:int ->
    proc:int ->
    aspace:int ->
    Platinum_core.Memtxn.t ->
    complete:(delay:int -> int -> unit) ->
    bool;
}
(** Asynchronous completion for distributed backends (DESIGN.md §4j).
    [try_remote] either adopts the transaction — returns [true], and
    [complete ~delay word] is called exactly once on the submitting
    node's engine, with [word] as [value] would hold it and 0 for
    anything else — or declines with [false], in which case the kernel
    serves the transaction through the synchronous [submit].  The
    calling thread blocks until [delay] ns after that call, when it
    resumes with [word] (the latency is implicit in when it wakes).
    [delay = 0] is allowed only from a later engine event; a [delay] of
    1 or more may be given inside [try_remote] itself, so a backend
    that knows the latency at once builds no event of its own.  An
    adopted transaction must not raise (backends decline anything whose
    validation should fail, so [submit] raises it instead). *)

type t = {
  page_words : int;  (** machine page size in 32-bit words *)
  submit : now:int -> proc:int -> aspace:int -> Platinum_core.Memtxn.t -> int;
      (** run one memory transaction; returns its latency in ns, and a
          [Read] or [Rmw] leaves its word in [value].  Batching never
          changes simulated cost: a transaction is charged exactly what
          its words issued back-to-back would be. *)
  value : int ref;
      (** the backend's one word cell: the value of the last [submit]ted
          [Read], or the old value of the last [Rmw]; a fast-path read or
          rmw hit ({!fastpath}) leaves its word here too *)
  new_aspace : unit -> int;
      (** create an empty address space (with its own default heap zone);
          returns its id.  Id 0 is the initial space. *)
  new_zone : aspace:int -> name:string -> pages:int -> int;  (** returns a zone handle *)
  alloc : zone:int -> words:int -> page_aligned:bool -> int;
      (** bump allocation inside a zone; returns the virtual word address *)
  new_segment : name:string -> pages:int -> int;
      (** a globally named memory object, shareable across address spaces *)
  map_segment : aspace:int -> segment:int -> int;
      (** bind a segment into an address space; returns its base vaddr
          there (address ranges need not match across spaces, §1.1) *)
  advise : now:int -> proc:int -> aspace:int -> vaddr:int -> len:int -> advice -> int;
      (** apply placement advice to the pages covering [vaddr, vaddr+len);
          returns latency; a no-op on machines without coherent memory *)
  migrate_cost : now:int -> from_proc:int -> to_proc:int -> int;
      (** cost of moving a thread's kernel stack (§2.2) *)
  fastpath : Fastpath.ops option;
      (** coalescing fast-path operations (DESIGN.md §4g); [None] = the
          backend only supports the full-suspend path *)
  remote : remote option;
      (** asynchronous remote completion ({!remote}); [None] = every
          transaction is served synchronously by [submit] *)
}

(** Single-operation conveniences over [submit]. *)

val read : t -> now:int -> proc:int -> aspace:int -> vaddr:int -> int * int
(** (value, latency ns) *)

val write : t -> now:int -> proc:int -> aspace:int -> vaddr:int -> int -> int
(** latency *)

val rmw : t -> now:int -> proc:int -> aspace:int -> vaddr:int -> (int -> int) -> int * int
(** atomic read-modify-write; returns (old value, latency) *)

val block_read : t -> now:int -> proc:int -> aspace:int -> vaddr:int -> len:int -> int array * int
val block_write : t -> now:int -> proc:int -> aspace:int -> vaddr:int -> int array -> int
