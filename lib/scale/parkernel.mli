(** The PLATINUM kernel on the sharded engine: domain-parallel coherence
    simulation with GB-scale address spaces.

    This module is the host: it runs one complete
    {!Platinum_kernel.Kernel} per node (a one-processor run-queue slice
    of the shared machine) under {!Platinum_sim.Shard.host}, with threads
    programming against the ordinary {!Platinum_kernel.Api}.  The
    coherent memory underneath is {!Homemem}, the home-partitioned
    protocol, reached only through its interface (DESIGN.md §4j).

    Every workload is a {!Platinum_kernel.Program.t}.  A run loads the
    program's image, spawns its body on every node in node order, runs,
    and then reports [verified] as its oracle and {!Homemem.at_rest_ok}.

    Determinism contract: a run is a pure function of
    [(workload, config, seed, inject_rate, iters, ops_per_node, width,
    span_words)] — the shard count and domain count never change the
    result, only the wall-clock time.  [test_parshard.ml] pins
    {!result.fingerprint} across shards × domains grids, clean and with
    fault injection, with the window self-checks armed.

    Address spaces are sparse: page tables are chunked
    {!Platinum_core.Flat} tables and page frames allocate on first touch,
    so a [span_words] of 2{^27}–2{^30} words costs memory proportional to
    the touched footprint. *)

type workload =
  | Jacobi  (** {!Platinum_kernel.Program.jacobi} *)
  | Rpc_echo  (** {!Platinum_kernel.Program.echo}, [ops_per_node] calls per pair *)
  | Program of Platinum_kernel.Program.t  (** the mesh workloads of {!Mesh} are such programs *)

val workload_name : workload -> string

type result = {
  workload : string;
  nodes : int;
  run_shards : int;  (** effective shard count (clamped to [nodes]) *)
  run_domains : int;  (** effective domain count (clamped to shards) *)
  events : int;  (** events executed across all hosted engines *)
  windows : int;  (** conservative synchronization windows taken *)
  clock : int;  (** final simulated time, ns *)
  reads : int;  (** completed read transactions *)
  writes : int;  (** completed write/rmw transactions *)
  replications : int;  (** page copies installed *)
  invalidations : int;  (** replicas shot down *)
  shootdowns : int;  (** invalidation rounds run at the homes *)
  ipis : int;  (** invalidation IPI send attempts *)
  retries : int;  (** recovery retries (IPI + retransmission) *)
  rpcs : int;  (** completed echo round trips *)
  faults : int;  (** faults the planes injected *)
  words : int;  (** simulated data words moved *)
  touched_pages : int;  (** home pages with a frame allocated *)
  span_words : int;  (** data-region address span, words *)
  setup_ms : float;  (** host wall time to build the run (not fingerprinted) *)
  verified : bool;  (** the program's oracle and {!Homemem.at_rest_ok} both held *)
  fingerprint : string;
      (** FNV-1a fold over every node's counters, engine history, module
          statistics, fault plane and home-page contents, in node order —
          byte-identical across shard and domain counts. *)
}

val run :
  ?check:bool ->
  ?shards:int ->
  ?domains:int ->
  ?inject_rate:float ->
  ?seed:int64 ->
  ?iters:int ->
  ?ops_per_node:int ->
  ?width:int ->
  ?span_words:int ->
  config:Platinum_machine.Config.t ->
  workload ->
  result
(** Run one kernel workload to completion.  [shards] (default 1) splits
    the per-node engines into contiguous blocks; [domains] (default 1)
    drives them in parallel — neither affects the result.  [inject_rate]
    > 0 attaches deterministic per-node fault planes (seeded from
    [seed] by the PR 6 split discipline).  [iters] (default 6) is the
    jacobi iteration count, [width] (default 128) the row width in words
    (at most a page) — both checked only for [Jacobi], the workload that
    uses them — [ops_per_node] (default 32) the echo call count per
    pair, and [span_words] (default 0 = compact) stretches the row
    placement over at least that address span — the GB-scale variant.
    [check] arms the window self-checks (defaults from [PLATINUM_CHECK],
    as {!Platinum_sim.Shard.host}).  Raises
    {!Platinum_kernel.Kernel.Thread_failure} /
    {!Platinum_kernel.Kernel.Deadlock} like a sequential kernel run. *)
