(** The coherent-memory page-fault handler (§3.2–§3.3).

    Every transition of the paper's Figure 4 state diagram is taken here,
    driven by read/write misses (the defrost daemon drives the remaining
    thaw transitions).  On a miss with no local physical copy, the
    {!Policy} returns a verdict — replicate/migrate, remote-map, freeze or
    thaw — and the handler carries it out: a [Freeze] or [Thaw] through
    the context's [freeze]/[thaw] at the fault's own [now], then the
    mapping.  A frozen page is always remote-mapped with the full rights
    the VM system permits, so it faults no further.

    The handler returns the installed Pmap entry and the fault latency,
    which composes: trap entry + (allocate/map or map-existing) +
    shootdown (restrict or invalidate) + page frees + block transfer,
    all charged against the contended memory modules. *)

exception Unmapped of { aspace : int; vpage : int }
(** No Cmap entry: the fault belongs to the VM layer. *)

exception Protection_violation of { aspace : int; vpage : int; write : bool }

exception Out_of_physical_memory

type ctx = {
  machine : Platinum_machine.Machine.t;
  phys : Platinum_phys.Phys_mem.t;
  counters : Counters.t;
  atcs : Atc.t array;
  policy : Policy.t;
  freeze : now:Platinum_sim.Time_ns.t -> Cpage.t -> unit;
      (** carries out a [Freeze] verdict, and the freeze-in-place that
          follows repeatedly aborted block transfers *)
  thaw : now:Platinum_sim.Time_ns.t -> Cpage.t -> unit;  (** carries out a [Thaw] verdict *)
  mappings_of : Cpage.t -> (Cmap.t * int) list;
      (** every (cmap, vpage) at which a coherent page is currently bound *)
  emit : Probe.t;
      (** the system's one event fan-out: the sanitizer's trace when armed,
          then the instrumentation probe when installed *)
  monitor : unit -> Check.monitor option;
      (** the coherence sanitizer's monitor, consulted at call time so it
          can be armed after the system is built; shootdowns report into it
          when armed *)
}

val handle :
  ctx ->
  now:Platinum_sim.Time_ns.t ->
  proc:int ->
  cmap:Cmap.t ->
  vpage:int ->
  write:bool ->
  Pmap.entry * int
(** Resolve a fault by processor [proc] at [vpage] of [cmap]'s address
    space.  Returns the new translation and the latency in ns. *)
