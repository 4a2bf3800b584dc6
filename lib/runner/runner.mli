(** Assemble and run complete PLATINUM instances.

    One call builds the whole stack — event engine, Butterfly machine
    model, physical memory, coherent memory with a policy, one user
    address space, kernel — runs a program on it, and returns the elapsed
    virtual time plus the post-mortem report. *)

type setup = {
  engine : Platinum_sim.Engine.t;
  machine : Platinum_machine.Machine.t;
  coherent : Platinum_core.Coherent.t;
  aspace : Platinum_vm.Addr_space.t;
  platsys : Platinum_kernel.Platsys.t;
  kernel : Platinum_kernel.Kernel.t;
}

val make :
  ?config:Platinum_machine.Config.t ->
  ?policy:Platinum_core.Policy.t ->
  ?defrost:Platinum_core.Defrost.mode ->
  ?frames_per_module:int ->
  ?default_zone_pages:int ->
  ?inject:Platinum_sim.Inject.config ->
  ?coalesce:bool ->
  unit ->
  setup
(** Defaults: 16-processor Butterfly Plus, the PLATINUM policy (with the
    config's t1), periodic defrost, 1024 frames per module, 4096-page
    default zone.  The defrost daemon is installed when the policy uses
    it.  [inject] attaches a fault-injection plane to the machine
    ({!Platinum_sim.Inject}); omitted, the hardware is fault-free as in
    the paper.  [coalesce] (default [true]) arms the kernel's
    effect-boundary fast path (DESIGN.md §4g); [false] is the per-effect
    differential baseline. *)

type result = {
  elapsed : Platinum_sim.Time_ns.t;
  report : Platinum_stats.Report.t;
  setup : setup;
}

val run : setup -> main:(unit -> unit) -> result
(** Run [main] as the initial thread on processor 0 until every thread
    finishes.  Checks coherence invariants machine-wide before returning
    (raises [Failure] on violation).  A violation raised mid-run — the
    monitor's {!Platinum_core.Check.Violation}, or a write to a shared
    frame ({!Platinum_phys.Frame.Shared_write}), checked in every run —
    fails its thread, halts the kernel, and is raised as
    {!Platinum_kernel.Kernel.Thread_failure}. *)

val time :
  ?config:Platinum_machine.Config.t ->
  ?policy:Platinum_core.Policy.t ->
  ?defrost:Platinum_core.Defrost.mode ->
  ?frames_per_module:int ->
  ?default_zone_pages:int ->
  ?inject:Platinum_sim.Inject.config ->
  ?coalesce:bool ->
  (unit -> unit) ->
  result
(** [make] + [run] in one step. *)

(* --- the UMA comparison machine (Figure 5) --- *)

type uma_result = {
  uma_elapsed : Platinum_sim.Time_ns.t;
  uma : Platinum_cache.Uma_sys.t;
}

val time_uma :
  ?nprocs:int ->
  ?page_words:int ->
  (unit -> unit) ->
  uma_result
(** Run a program on the bus-based UMA machine with write-through caches
    ({!Platinum_cache.Uma_sys.sequent}, the Sequent Symmetry model)
    instead of PLATINUM.  Same kernel, same
    programming model, different memory system. *)
