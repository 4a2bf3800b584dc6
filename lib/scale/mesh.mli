(** The mesh workloads for machines past the Butterfly, as hosted-kernel
    programs.

    Each workload is a {!Platinum_kernel.Program.t}: every node runs one
    thread against the ordinary {!Platinum_kernel.Api}, on the hosted
    kernel's home-partitioned coherent memory ({!Homemem}).  Word traffic,
    replica shootdowns and request serving are therefore real page
    operations, with versions, holder sets and fault-plane recovery, and
    not message mocks.  Echo traffic is {!Parkernel.Rpc_echo}.

    Every operation's simulated latency (ns) lands in a per-node
    {!Platinum_stats.Hist}; {!run} merges them.

    Determinism contract: a run is a pure function of
    [(workload, config, seed, inject_rate, ops_per_node, offered_rps)].
    The shard and domain counts never change the result.
    [test_parshard.ml] and [test_serve.ml] pin {!result.run}'s fingerprint
    across shards × domains grids. *)

type workload =
  | Traffic
      (** seeded word reads and writes: 70% at the node's own home, 30% at
          a remote home, a quarter of those across the fabric *)
  | Storm
      (** each round reads 1–4 neighbouring rows, installing replicas, then
          writes the node's own row, shooting down its neighbours' copies *)
  | Serve
      (** open-loop serving: each node sleeps to its next seeded Poisson
          arrival ({!Platinum_sim.Arrivals}), then sends the request as an
          rmw on its cluster server's row; latency counts from the
          scheduled arrival, so queueing shows in the tail *)

val workload_name : workload -> string

type result = {
  run : Parkernel.result;
      (** the hosted run, named after the workload.  Its [fingerprint]
          also folds in {!latency}'s.  [verified] is the at-rest check,
          and for [Serve] also the rmw oracle: every server returned
          exactly the old values [0 .. k-1] to the [k] requests it
          received. *)
  latency : Platinum_stats.Hist.t;  (** merged per-operation latency, ns *)
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
(** Run one workload on every node of [config] via {!Parkernel.run}.
    [ops_per_node] (default 50) counts operations for [Traffic] and
    [Serve] and rounds for [Storm].  [offered_rps] (default 25000, [Serve]
    only) is each node's arrival rate.  The other options are
    {!Parkernel.run}'s. *)
