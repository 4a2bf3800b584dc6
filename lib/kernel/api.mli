(** The PLATINUM programming model, as seen by application threads.

    This is the whole of it: shared memory that is read and written with no
    placement annotations (the coherent memory system replicates, migrates,
    or freezes pages underneath), threads, ports, and allocation zones.
    Call these only from inside a thread run by {!Kernel}. *)

(* --- memory --- *)

val read : int -> int
(** [read vaddr] reads one 32-bit word of coherent memory. *)

val write : int -> int -> unit

val rmw : int -> (int -> int) -> int
(** Atomic read-modify-write; returns the old value.  The Butterfly's
    atomic network operations — the basis of locks and event counts. *)

val block_read_into : int -> int array -> off:int -> len:int -> unit
(** [block_read_into vaddr dst ~off ~len] reads [len] consecutive words
    into [dst.(off .. off+len-1)] and touches no other element of [dst] —
    the allocation-free form of {!block_read}: a caller that reuses [dst]
    moves data with no heap traffic.  Raises [Invalid_argument], before
    any simulated time is charged, when [len < 0], [off < 0] or
    [off + len > Array.length dst].  If the transaction raises partway
    (a fault the memory system cannot resolve), the contents of
    [dst.(off .. off+len-1)] are unspecified. *)

val block_write_sub : int -> int array -> off:int -> len:int -> unit
(** [block_write_sub vaddr src ~off ~len] writes [src.(off .. off+len-1)]
    to [len] consecutive words; same range checks as {!block_read_into}.
    [src] must not change until the call returns. *)

val block_read : int -> int -> int array
(** [block_read vaddr len] reads [len] consecutive words into a fresh
    array: {!block_read_into} on a new buffer. *)

val block_write : int -> int array -> unit
(** {!block_write_sub} of the whole array. *)

val read_stride : ?elem_words:int -> int -> count:int -> stride:int -> int array
(** [read_stride vaddr ~count ~stride] gathers [count] elements of
    [elem_words] consecutive words each (default 1), the k-th starting at
    [vaddr + k*stride], in one kernel trap.  Simulated cost is identical
    to the equivalent per-element block reads. *)

val write_stride : ?elem_words:int -> int -> stride:int -> int array -> unit
(** [write_stride vaddr ~stride data] scatters [data] as elements of
    [elem_words] consecutive words (default 1) placed [stride] words
    apart; [data] length must be a multiple of [elem_words]. *)

(* --- time --- *)

val compute : int -> unit
(** Spend the given nanoseconds of pure local computation. *)

val now : unit -> int
(** Simulated time (instrumentation only). *)

val sleep : int -> unit
(** Block for the given nanoseconds of simulated time without occupying
    the processor — a timer, not computation.  Used by recovery code
    (retransmission timeouts); the wake-up is an ordinary engine event,
    so a pending sleep keeps {!Platinum_sim.Engine.run} alive. *)

val inject_handle : unit -> Platinum_sim.Inject.t option
(** The machine's fault-injection plane, if one is attached
    ({!Platinum_machine.Machine.set_inject}) — consulted by user-level
    recovery paths such as {!Rpc} retransmission. *)

(* --- threads --- *)

val spawn : ?proc:int -> ?aspace:int -> (unit -> unit) -> Eff.thread_id
(** Create a thread, optionally on a given processor and in a given
    address space (default: the spawner's; a thread is "constrained to
    execute within a single address space", §1.1). *)

val join : Eff.thread_id -> unit
val spawn_join_all : ?procs:int list -> (int -> unit) list -> unit
(** Spawn one thread per function (placed on [procs] round-robin when
    given, each function receiving its index), then join them all. *)

val yield : unit -> unit
val migrate : int -> unit
val self : unit -> Eff.thread_id
val my_proc : unit -> int

(* --- ports --- *)

val new_port : unit -> Eff.port_id
val send : Eff.port_id -> int array -> unit
val recv : Eff.port_id -> int array

(* --- allocation --- *)

val new_zone : string -> pages:int -> Eff.zone_id
val alloc : ?zone:Eff.zone_id -> ?page_aligned:bool -> int -> int
(** [alloc words] bump-allocates in the default zone (handle [0]). *)

val alloc_pages : ?zone:Eff.zone_id -> int -> int
(** Allocate whole pages; always page-aligned. *)

val page_words : unit -> int
(** The machine's page size in 32-bit words. *)

(* --- address spaces and shared memory objects (§1.1) --- *)

val my_aspace : unit -> int

val new_aspace : unit -> int
(** A fresh, empty address space (own heap, no bindings).  Threads in
    different spaces share nothing unless a segment is mapped into both;
    their other objects are protected from each other. *)

val new_segment : string -> pages:int -> int
(** A globally named memory object. *)

val map_segment : int -> int
(** Bind a segment into the calling thread's address space; returns its
    base virtual address there.  The same segment may be mapped into many
    spaces, at different addresses — memory objects are the unit of
    sharing between address spaces. *)

(* --- placement advice (§9) --- *)

val advise : int -> int -> Memsys.advice -> unit
(** [advise vaddr len advice] passes a placement hint for the pages
    covering the range.  Semantics never change — only data location:
    [Freeze] pins known fine-grain-shared pages remote immediately,
    [Thaw] reacts to a known phase change without waiting for the defrost
    daemon, [Home m] collapses pages to one copy on node [m].  Intended
    for language run-time systems more than for application code. *)
