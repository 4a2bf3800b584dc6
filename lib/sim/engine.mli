(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of events.  Events
    scheduled for the same instant run in scheduling order (a monotonically
    increasing sequence number breaks ties), so runs are reproducible.

    {2 Same-time ties}

    Some of the orders the sequence gives are contracts the code relies
    on:
    - {e An event's own follow-up at [now].}  Work an event schedules for
      the current instant (a zero delay: [Api.sleep 0], a wake-up, a
      dispatch) runs after the current event returns, never inside it,
      and after every event already pending at that instant.
    - {e FIFO among one engine's schedules.}  Events one engine schedules
      for the same instant run in the order they were scheduled.  With no
      router, {!post} is {!schedule_after} and keeps that order too.
    - {e The {!advance_inline} soundness rule.}  An inline step is taken
      only when its instant is strictly earlier than every pending event,
      so it never reorders a tie, and it uses up a sequence number as the
      popped event would, so every later tie breaks as it would have.
    - {e The hosted drain's merge.}  {!Shard} delivers mail in
      [(at, (node lsl 36) lor seq)] order, [seq] being the sending node's
      own counter: one node's same-time messages arrive in the order it
      posted them, and each destination numbers its arrivals in an order
      that is a pure function of the workload.  That is what makes a
      hosted run the same at every shard and domain count.

    The other ties only make runs deterministic.  The real machine
    promises no order for them, and the code is meant not to depend on
    it (untested so far: these are the ties a same-time perturbation
    would reorder):
    - ties between different processors' events on an unhosted engine,
      which break by which was scheduled first;
    - ties between different nodes' mail in a hosted drain, which break
      by the sending node's number. *)

type t

val create : unit -> t

val now : t -> Time_ns.t
(** Current virtual time. *)

val schedule_at : t -> ?daemon:bool -> at:Time_ns.t -> (unit -> unit) -> unit
(** Run the thunk when the clock reaches [at].  Scheduling in the past
    raises [Invalid_argument].

    Events come in two classes:
    - {e normal} (the default): application work, and the timers that
      belong to it (a sleep's wake-up, an IPI ack timeout, an RPC
      retransmission).  Keeps {!run} alive.
    - [daemon] events do not keep {!run} alive: the run stops once only
      daemon events remain — this is how recurring kernel daemons avoid
      keeping a finished simulation spinning. *)

val schedule_after : t -> ?daemon:bool -> delay:Time_ns.t -> (unit -> unit) -> unit
(** [schedule_after t ~delay f] is [schedule_at t ~at:(now t + delay) f].
    Negative delays raise [Invalid_argument]. *)

(** {2 Sharded façade}

    Cross-node work — an IPI, an RPC message, a block-transfer completion,
    a kernel wakeup or thread migration landing on another node's
    processor, a coherence protocol step for a page homed elsewhere — goes
    through {!post}, which names the destination node.  By default [post]
    is {!schedule_after} on this engine's own queue — the strictly
    sequential world, unchanged.

    Router-install lifecycle: outside tests, only {!Shard.host} installs
    a {!router}, and it owns the engines for the whole run.  It groups
    per-node engines — light mesh nodes or full kernel simulations —,
    keys each engine's cross-node posts by the node it simulates and
    carries them through per-pair mailboxes; it installs a router on {e every} hosted engine
    at {!Shard.host} time so that even setup-time posts take the
    deterministic mailbox path.  The classic sequential entry points
    ({!run}, [Runner], a lone kernel on one engine) install no router,
    and a router must be absent there: the no-router schedule is the
    golden oracle that sharded runs are measured against. *)

type router = { route : dst:int -> delay:Time_ns.t -> (unit -> unit) -> unit }

val set_router : t -> router option -> unit
val router : t -> router option

val post : t -> dst:int -> delay:Time_ns.t -> (unit -> unit) -> unit
(** Enqueue cross-node work due at node [dst] after [delay].  A router
    knows which node its engine simulates, so the sender is never named.
    Identical to {!schedule_after} unless a router is installed.  This is the seam every cross-node effect must cross —
    kernel scheduling traffic (wakeups, migrations) and coherence
    protocol messages included — so that a sharded driver can reroute it
    without the caller changing. *)

val every : t -> ?daemon:bool -> period:Time_ns.t -> ?start:Time_ns.t -> (unit -> bool) -> unit
(** Run a recurring event each [period]; the first firing is at [start]
    (default [now t + period]).  The event recurs while the callback returns
    [true]. *)

val run : t -> unit
(** Run events until no non-daemon events remain.  Only [run] on an
    engine with no {!router} permits {!advance_inline}. *)

val advance_inline : t -> at:Time_ns.t -> bool
(** [advance_inline t ~at] is the inline form of scheduling a normal
    event at [at] that would be the next one to run.  When [at] is not in
    the past and is strictly earlier than every pending event, it advances
    the clock to [at], counts the step as a popped normal event
    ({!events_processed} and the sequence number both advance, so every
    later event keeps its seed order and tie-breaks), and returns [true]:
    the caller then runs the event's work in place, with no closure and
    no heap round trip.  Otherwise it changes nothing and returns
    [false], and the caller schedules the work as usual.

    It returns [false] outside {!run} on an engine with no router:
    {!run_until} driven from outside, and every engine hosted under
    {!Shard}, never inline.  An identity router
    ([fun ~dst:_ ~delay fn -> schedule_after t ~delay fn]) keeps
    the schedule of the unrouted engine, so running the same program
    under one gives the reference schedule that never inlines.

    Soundness: the in-place work runs before the rest of the current
    event, not after it.  So after a caller continues work inline, nothing
    in the same event may read {!now}, schedule or post an event, or
    otherwise observe the order: the inline step must be the last thing
    the current event does.  [Kernel] resumes fibers this way only from
    tail position (its [complete] and [settle]). *)

val run_until : t -> Time_ns.t -> unit
(** Run every event with timestamp [<=] the given horizon, advancing the
    clock to the horizon. *)

val events_processed : t -> int
(** Total number of events executed so far (for instrumentation). *)

val is_empty : t -> bool
(** No non-daemon events pending. *)

val next_at : t -> Time_ns.t
(** Timestamp of the earliest pending event of any class, or [max_int]
    when the queue is empty — the conservative floor a hosting driver
    ({!Shard.host}) uses to cut time windows. *)

(* --- the self-check switch --- *)

val checks_armed_by : string option -> bool
(** The one parser of the [PLATINUM_CHECK] environment variable, given its
    value: unset, [""] and ["0"] leave the self-checks off; any other value
    arms them. *)

val env_checks_armed : unit -> bool
(** {!checks_armed_by} applied to the process environment.  The coherence
    monitor ({!Platinum_core.Check.env_enabled}) and the shard window
    checks ({!Shard.host}) both default to it. *)
