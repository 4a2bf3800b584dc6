(** Sharded discrete-event engine: one simulation split into per-node
    engines, grouped into shards advanced in parallel by OCaml 5 domains
    under conservative time-window synchronization.

    [host ~shards ~lookahead engines] groups [Array.length engines]
    per-node engines (node [i] is [engines.(i)]) into [shards] shards and
    installs an {!Engine.router} on every one of them — this is the one
    place in the system that installs routers, and it owns the engines
    until {!run_hosted} returns.  A node typically carries a complete
    kernel simulation with its own run-queue slice, coherence partition
    and fault sub-plane ([Parkernel]); every [Engine.post ~dst] with
    [dst] different from the posting node — kernel wakeups and
    migrations, invalidation IPIs, copy-block transfers, request
    retransmissions, remote reads — draws a key [(time, src_node, src_seq)] from the node's
    single-writer counter and crosses through a per-(shard, shard)
    mailbox; self-posts stay engine-local.

    The window width is the machine's minimum cross-node latency (the
    lookahead; see {!Platinum_machine.Config.lookahead_ns}): inside one
    window no node can affect another, and mailboxes drain in global
    (time, key) order at window boundaries.  Cross-node events take the
    mailbox path {e even on the same shard} (and even at shard count 1):
    destination engines assign internal sequence numbers on arrival, so
    arrival order must be a pure function of the workload, which no shard
    map can perturb.  A hosted run is therefore byte-identical at any
    (shards, domains), but follows a different (equally valid) schedule
    than the same kernels on an engine with no router; the no-router
    sequential run remains the golden oracle, and nothing in hosting
    touches it.

    Handler contract: an event may schedule further work for its own node
    at any delay, and post work to other nodes at a delay of at least the
    lookahead.  Events must touch only their own node's state — that is
    what makes a node's history independent of where it is sharded, and
    what makes running shards on parallel domains safe. *)

type hosted

val host : ?check:bool -> shards:int -> lookahead:Time_ns.t -> Engine.t array -> hosted
(** Group the engines and install their routers.  Shards are clamped to
    the node count; nodes map to shards in contiguous blocks.  [check]
    arms the window-invariant self-checks (default: the [PLATINUM_CHECK]
    environment variable, read by {!Engine.env_checks_armed} like the
    coherence monitor's); they raise [Failure] when a mailbox delivery
    lands before the end of the window it was posted in.  Because every hosted node's state is touched
    only by its own engine's events, monitor sweeps are shard-local by
    construction — that is the pinned monitor strategy (DESIGN.md §4j).
    Raises [Invalid_argument] if any engine already has a router; a
    later cross-node post below the lookahead or to an unknown node
    raises [Invalid_argument] from [Engine.post]. *)

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
