(** The assembled NUMA machine: configuration, memory modules, and
    per-processor accounting shared by the kernel layers above.

    Processor node [i] hosts processor [i] and memory module [i]. *)

type t

val create : Config.t -> t

val config : t -> Config.t
val nprocs : t -> int
val modules : t -> Memmodule.t array

(* --- §7 local data caches (optional) --- *)

val caches_enabled : t -> bool
val cache : t -> proc:int -> Cache.t option

val cache_exn : t -> proc:int -> Cache.t
(** Processor [proc]'s cache without the option wrap (no allocation);
    only legal after {!caches_enabled} returned [true]. *)

val invalidate_cached_range : t -> proc:int -> addr:int -> words:int -> unit
val invalidate_cached_range_all : t -> addr:int -> words:int -> unit
(** Software-maintained cache coherency: the coherent memory system calls
    these wherever a page's data or cachability changes. *)

(* --- interrupt-cost accounting ---

   When a shootdown interrupts a processor, the target spends
   [sync_handler_ns] in the Cmap synchronization handler.  Rather than
   rescheduling the target's already-queued resume event, the cost is
   accumulated as a penalty charged to the target's next operation — the
   standard deferred-charge device for modelling asynchronous interrupts in
   a discrete-event simulator. *)

val add_penalty : t -> proc:int -> int -> unit
val take_penalty : t -> proc:int -> int
(** Return and clear the accumulated penalty for a processor. *)

val pending_penalty : t -> proc:int -> int
(** The accumulated penalty, without clearing it.  The kernel's coalescing
    fast path refuses to arm while a penalty is pending, so deferred
    shootdown-handler charges always flow through the full-suspend path. *)

(* --- processor busy horizon ---

   [proc_busy_until] is the earliest time the processor will next be able
   to respond to an inter-processor interrupt; shootdown initiators use it
   to compute how long they wait for each target's acknowledgement. *)

val proc_busy_until : t -> proc:int -> Platinum_sim.Time_ns.t
val set_proc_busy_until : t -> proc:int -> Platinum_sim.Time_ns.t -> unit

(* --- fault injection --- *)

val set_inject : t -> Platinum_sim.Inject.t option -> unit
(** Attach (or detach) a fault-injection plane.  [None] (the default) and
    an attached plane with rate [0.0] are behaviourally identical: the
    fault-free paths never consult or perturb anything. *)

val inject : t -> Platinum_sim.Inject.t option
(** The attached plane, consulted by the kernel layers ({!Platinum_machine.Xbar},
    shootdown, fault handler, RPC) at each fault opportunity. *)

(* --- counters --- *)

val count_ipi : t -> unit
val ipis_sent : t -> int
