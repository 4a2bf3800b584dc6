(** Sharded discrete-event engine: one simulation's queue split into
    per-node-cluster shards advanced in parallel by OCaml 5 domains under
    conservative time-window synchronization.

    Two modes share the window protocol and the domain pool.  The
    {e message-level} mode ({!create}/{!run}) keeps one event heap per
    shard — the transport for the [Scale] mesh workloads.  The {e hosted}
    mode ({!host}/{!run_hosted}) advances one full {!Engine.t} per node —
    each carrying a complete kernel simulation with its own run-queue
    slice, coherence partition and fault sub-plane — and routes every
    cross-node [Engine.post] (kernel wakeups and migrations, invalidation
    IPIs, copy-block transfers, RPC, remote reads) through the per-pair
    mailboxes.  Kernel traffic is first-class here, not just scale
    workloads.

    Every event carries the key [(time, src_node, src_seq)]; each shard
    executes its events in strict key order; cross-shard events travel
    through per-pair mailboxes and merge by key at window boundaries.  The
    window width is the machine's minimum cross-node latency (the
    lookahead; see {!Platinum_machine.Config.lookahead_ns}): inside one
    window no shard can affect another, so output is byte-identical at any
    shard count and any domain count, and a single shard on one domain
    degenerates to today's sequential event loop.

    Handler contract: an event handler may [schedule] further work for its
    own node at any delay, and [post] work to other nodes at a delay of at
    least the lookahead.  Handlers must touch only their own node's state
    — that is what makes a node's history independent of where it is
    sharded, and what makes running shards on parallel domains safe. *)

type t

type event = Time_ns.t -> unit
(** A handler, applied to its delivery time. *)

val create : ?check:bool -> nodes:int -> shards:int -> lookahead:Time_ns.t -> unit -> t
(** A group of [shards] shards over [nodes] logical nodes (shards are
    clamped to the node count; nodes map to shards in contiguous blocks).
    [lookahead] is the conservative window width — no [post] may use a
    smaller delay.  [check] arms the window-invariant self-checks (default:
    the [PLATINUM_CHECK=1] environment variable, like the coherence
    monitor); they verify time never runs backwards and no mailbox
    delivery lands in a shard's past, and raise [Failure] on violation. *)

val nodes : t -> int
val shards : t -> int
val lookahead : t -> Time_ns.t

val shard_of_node : t -> int -> int
(** Which shard owns a node. *)

val now : t -> node:int -> Time_ns.t
(** The owning shard's clock (the timestamp of its current event). *)

val schedule : t -> node:int -> delay:Time_ns.t -> event -> unit
(** Schedule node-local work [delay] ns after the node's current time.
    Only the node's own handlers (or pre-run setup code) may call this —
    the per-node sequence counter is single-writer. *)

val post : t -> src:int -> dst:int -> delay:Time_ns.t -> event -> unit
(** Send cross-node work from [src], due at [dst] after [delay].  For
    [src <> dst] the delay must be at least the lookahead
    ([Invalid_argument] otherwise — enforced for same-shard pairs too, so
    behaviour can never depend on the shard count).  [post t ~src ~dst]
    with [src = dst] is {!schedule}. *)

val run : ?domains:int -> t -> unit
(** Advance windows until every shard is quiescent (no pending events, no
    undelivered mail).  [domains = 1] (the default) drives every shard on
    the calling domain; larger counts spawn a pool of [domains - 1]
    workers that claim shards each phase.  The result is identical either
    way. *)

val events_processed : t -> int
(** Events executed so far, across all shards. *)

val windows : t -> int
(** Synchronization windows taken so far. *)

val clock : t -> Time_ns.t
(** The latest shard clock (after {!run}: the common final time). *)

(** {2 Hosted engines: kernel simulations under the window protocol}

    [host ~shards ~lookahead engines] groups [Array.length engines]
    per-node engines (node [i] is [engines.(i)]) into [shards] shards and
    installs an {!Engine.router} on every one of them — this is the one
    place in the system that installs routers, and it owns the engines
    until {!run_hosted} returns.  From that moment every
    [Engine.post ~dst] with [dst] different from the posting node draws a
    key from the node's single-writer counter and crosses through a
    mailbox; self-posts stay engine-local.  Posts must respect the
    lookahead, exactly as {!post} does.

    Unlike {!post}, cross-node events take the mailbox path {e even on
    the same shard} (and even at shard count 1): destination engines
    assign internal sequence numbers on arrival, so arrival order must be
    a pure function of the workload — mailboxes drain in global
    (time, key) order at window boundaries, which no shard map can
    perturb.  A hosted run is therefore byte-identical at any
    (shards, domains), but follows a different (equally valid) schedule
    than the same kernels on an engine with no router; the no-router
    sequential run remains the golden oracle, and nothing in hosting
    touches it. *)

type hosted

val host : ?check:bool -> shards:int -> lookahead:Time_ns.t -> Engine.t array -> hosted
(** Group the engines and install their routers.  [check] arms the
    window-invariant self-checks (default: the [PLATINUM_CHECK=1]
    environment variable); because every hosted node's state is touched
    only by its own engine's events, monitor sweeps are shard-local by
    construction — that is the pinned monitor strategy (DESIGN.md §4j).
    Raises [Invalid_argument] if any engine already has a router. *)

val run_hosted : ?domains:int -> hosted -> unit
(** Advance windows until no hosted engine has a non-daemon event pending
    and every mailbox is empty.  [domains = 1] (the default) drives every
    shard on the calling domain; larger counts spawn a worker pool.  The
    result is identical either way.  A hosted group can run once.

    A window costs O(due nodes + mail), not O(nodes): each shard keeps a
    wake index of its engines' next event times, and a window runs only
    the engines with an event inside it.  The others are not touched, so
    their clocks lag during the run; when it ends, every engine's clock is
    brought to the final window's end (the common {!hosted_clock}). *)

val hosted_nodes : hosted -> int
val hosted_shards : hosted -> int
val hosted_shard_of_node : hosted -> int -> int
val hosted_windows : hosted -> int
(** Synchronization windows taken. *)

val hosted_events : hosted -> int
(** Events executed across all hosted engines. *)

val hosted_clock : hosted -> Time_ns.t
(** The latest hosted-engine clock (after {!run_hosted}: the common final
    time). *)
