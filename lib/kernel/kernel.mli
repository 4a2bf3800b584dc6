(** The PLATINUM kernel runtime: threads, per-processor scheduling, ports.

    Threads are OCaml-5 effect-handler fibers.  When a thread performs a
    memory effect or requests a kernel service ({!Eff}), the handler asks
    the {!Memsys} backend for the operation's latency, marks the thread's
    processor busy for that long on the discrete-event engine, and
    resumes the continuation when the virtual clock gets there.  Pending
    interrupt-handler penalties (shootdowns received) are charged at the
    next operation boundary.

    A thread is bound to one processor at a time (§1.1); [Migrate] moves it
    explicitly, paying for the kernel-stack block copy.  Scheduling is
    per-processor run queues with quantum-based preemption at operation
    boundaries. *)

exception Deadlock of string
(** Raised by {!run} when live threads remain but no event can wake them. *)

exception Thread_failure of exn
(** A simulated thread raised.  The first failure halts the kernel (no
    thread resumes after it) and is re-thrown at the end of {!run}. *)

type t

val create :
  ?coalesce:bool ->
  ?slice:int * int ->
  engine:Platinum_sim.Engine.t ->
  machine:Platinum_machine.Machine.t ->
  memsys:Memsys.t ->
  unit ->
  t
(** [coalesce] (default [true]) arms the effect-boundary fast path
    ({!Fastpath}, DESIGN.md §4g) whenever the backend provides
    {!Memsys.t.fastpath} ops: consecutive per-word accesses that hit the
    ATC drain inline and are charged as one batched operation at the
    next suspension.  [false] forces every access through the per-effect
    path (the differential-testing baseline).

    [slice] is [(base, count)]: the contiguous processor range this kernel
    schedules.  The default is the whole machine.  A per-node kernel under
    {!Platinum_sim.Shard.host} passes its own node's processors, so [n]
    kernels over an [n]-node machine cost O(n) run queues in total, not
    O(n²).  Placement, wakeups and migrations are confined to the slice
    ([Invalid_argument] on a processor outside it). *)

val engine : t -> Platinum_sim.Engine.t
val machine : t -> Platinum_machine.Machine.t
val memsys : t -> Memsys.t

val spawn : t -> ?proc:int -> ?aspace:int -> (unit -> unit) -> Eff.thread_id
(** Create a thread from outside the simulation (the initial thread).
    Unplaced threads go round-robin over processors; [aspace] defaults to
    address space 0. *)

val run : t -> main:(unit -> unit) -> Platinum_sim.Time_ns.t
(** Spawn [main] on processor 0, run the simulation to completion, and
    return the time at which the last thread finished.  Raises
    {!Thread_failure} if any thread raised, {!Deadlock} if threads remain
    blocked forever. *)

val post_run_checks : t -> Platinum_sim.Time_ns.t
(** The end-of-run diagnostics of {!run}, without driving the engine:
    raises {!Thread_failure} if any thread raised, {!Deadlock} if
    unfinished threads remain, and otherwise returns the time the last
    thread finished.  For drivers that advance the engine externally —
    per-node kernels hosted under {!Platinum_sim.Shard.run_hosted}. *)

val threads_created : t -> int
val context_switches : t -> int
