(** Message-level workloads for machines past the Butterfly.

    The kernel simulation charges cross-node costs arithmetically inside
    one event; these workloads instead decompose them into real messages
    between per-node engines hosted on the sharded engine
    ({!Platinum_sim.Shard.host}): a remote word access
    is a request event at the home node — served against the home module's
    queue, through the home node's fault plane — and a response event back;
    a shootdown is an IPI event per target with the ack riding back; an
    RPC is a request/response pair against per-cluster servers.  All of it
    flows through the shard mailboxes, which is what lets one simulation
    spread over OCaml 5 domains and scale to hundreds or thousands of
    nodes ({!Platinum_machine.Config.hierarchical}).

    Determinism contract: a run is a pure function of
    [(workload, config, seed, inject_rate, ops_per_node)] — the shard
    count and domain count never change the result, only the wall-clock
    time.  [test_parshard.ml] pins {!result.fingerprint} across
    shards × domains grids, with the window self-checks armed and with
    fault injection on. *)

type workload =
  | Traffic  (** remote/local word traffic served at the home module *)
  | Storm  (** shootdown IPI storms with lost/delayed-IPI recovery *)
  | Echo  (** RPC echo against per-cluster servers, with retransmission *)
  | Serve
      (** open-loop request serving: seeded Poisson arrivals per node
          ({!Platinum_sim.Arrivals}), per-cluster servers with
          retransmission, and per-node latency histograms
          ({!Platinum_stats.Hist}) whose merged tails land in
          {!result.p50_ns}..{!result.p999_ns} *)

val workload_name : workload -> string
val all_workloads : workload list

val lookahead : Platinum_machine.Config.t -> workload -> int
(** The conservative window width this workload runs under: the minimum
    cross-node delay of the messaging primitive it uses (word trip, IPI
    send, or port operation). *)

type result = {
  workload : string;
  nodes : int;
  run_shards : int;  (** effective shard count (clamped to [nodes]) *)
  run_domains : int;
  events : int;  (** events executed across all shards *)
  windows : int;  (** conservative synchronization windows taken *)
  clock : int;  (** final simulated time, ns: the exclusive end of the last window *)
  accesses : int;  (** completed word-burst accesses (Traffic) *)
  words : int;  (** simulated words moved *)
  remote : int;  (** accesses served by a remote home node *)
  cross : int;  (** of those, how many crossed the fabric *)
  ipis : int;  (** IPI send attempts (Storm) *)
  retries : int;  (** recovery retransmissions (Storm + Echo) *)
  rpcs : int;  (** completed RPC round trips (Echo) *)
  faults : int;  (** faults the planes injected *)
  avg_latency_ns : float;  (** mean completed-operation latency *)
  p50_ns : int;  (** latency percentiles over the merged histograms *)
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;  (** (all 0 for workloads that record no latencies) *)
  fingerprint : string;
      (** FNV-1a fold over every node's counters, module statistics,
          latency histogram and fault-plane fingerprint, in node order —
          byte-identical across shard and domain counts. *)
}

val run :
  ?check:bool ->
  ?shards:int ->
  ?domains:int ->
  ?inject_rate:float ->
  ?seed:int64 ->
  ?ops_per_node:int ->
  ?offered_rps:float ->
  config:Platinum_machine.Config.t ->
  workload ->
  result
(** Run one workload to quiescence.  [shards] (default 1) splits the node
    set into contiguous blocks; [domains] (default 1) drives them in
    parallel — neither affects the result.  [inject_rate] > 0 attaches a
    deterministic per-node fault plane ({!Platinum_sim.Inject}) exercising
    the IPI-retry and RPC-retransmission recovery paths.  [offered_rps]
    (default 25000, [Serve] only) is each node's open-loop arrival rate.
    [check] arms the shard window self-checks (defaults from
    [PLATINUM_CHECK=1]). *)
