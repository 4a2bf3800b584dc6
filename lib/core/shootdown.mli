(** The NUMA shootdown mechanism (§3.1).

    When a coherency action must restrict or remove virtual-to-physical
    translations held by other processors, the initiator posts a Cmap
    message per affected address space and interrupts exactly the
    processors that (a) appear in the reference mask of a Cmap entry for
    the page — i.e. actually hold a translation — and (b) currently have
    that address space active in their ATC ({!Atc.is_active}).  Inactive holders apply the change when they
    next activate the space, at no interrupt cost.

    Timing: the initiator pays [shootdown_post_ns] per message and
    [ipi_send_ns] per interrupted target (sends are serialized at the
    initiator — the paper's ≈7 µs incremental cost), then waits for every
    target's acknowledgement; a target acknowledges [sync_handler_ns] after
    it can take the interrupt (it may be mid-way through a long memory
    operation — this is what stretches the paper's 0.04–0.21 ms shootdown
    component).  Target-side handler time is charged to the target as a
    deferred penalty.

    State: no message is stored.  Changes are applied eagerly (atomically
    within the fault event), which is observably equivalent to the paper's
    lazy queue-draining because a processor always drains its queue before
    touching the space; the queue survives only as the costs above and the
    [messages], [interrupts] and [deferred_updates] counters. *)

type outcome = {
  latency : int;  (** time added to the initiating fault *)
  interrupted : int;  (** processors that took an IPI *)
  deferred : int;  (** Pmap updates applied without an interrupt *)
}

val run :
  ?monitor:Check.monitor ->
  machine:Platinum_machine.Machine.t ->
  counters:Counters.t ->
  atcs:Atc.t array ->
  now:Platinum_sim.Time_ns.t ->
  initiator:int ->
  mappings:(Cmap.t * int) list ->
  directive:Cmap.directive ->
  spare:(Cmap.t * int) option ->
  unit ->
  outcome
(** [run ~mappings ~directive ~spare ()] executes one shootdown over every
    (cmap, vpage) at which the page is mapped.  [spare], when given,
    identifies the one translation that must survive an [Invalidate] — the
    initiator's own mapping in the faulting address space.

    With [monitor], the sanitizer's stale-translation check runs on
    completion: no targeted processor may retain a Pmap translation (the
    only copy: the ATC is a stamp on it) after an [Invalidate], nor write
    permission after a [Restrict_to_read] (§3.1; the NUMA analogue of
    numaPTE's TLB-consistency property).  Violations raise {!Check.Violation}. *)

val test_skip_refmask_clear : bool ref
(** Fault injection for the sanitizer's own tests and the model checker's
    mutation mode: when set, an [Invalidate] "forgets" to clear the
    processed targets from the reference mask — the deliberately broken
    transition that the invariant monitor must catch (it trips
    refmask-pmap-agreement on the next sweep).  Always [false] outside
    tests. *)
