(** Multi-tenant request serving on PLATINUM — §4.1's three co-location
    options as interchangeable transports under open-loop load.

    When computation must reach shared data, the paper names three ways to
    bring them together: operate on the data remotely, migrate the page,
    or ship the computation to the data's home.  The serving workload
    instantiates all three as request transports against per-tenant state
    pages:

    - {e ring}: clients publish requests into a shared-memory ring
      ({!Ring}) living in coherent pages; a server thread on the tenant's
      home node pops and executes them against its local state (the page
      migrates to — and stays at — the home).  The ring pages themselves
      are fine-grain shared, so the replication policy freezes them and
      traffic degenerates to remote word operations: shared-memory RPC in
      exactly the "Telepathic Datacenters" sense.
    - {e rpc}: the existing port-based {!Platinum_kernel.Rpc} path — move
      the computation, with client-side retransmission under a lossy
      switch.
    - {e frozen}: no server at all; the tenant state is collapsed to its
      home node and frozen ({!Platinum_kernel.Api.advise}), and clients
      operate on it remotely word by word — the paper's escape hatch as a
      transport.

    Arrivals are open-loop ({!Platinum_sim.Arrivals}): each client draws
    its arrival schedule from a seeded stream and submits on schedule
    whether or not earlier requests completed, so offered load is a pure
    function of [(seed, process)] and overload queues instead of
    self-throttling.  Every completed request records its latency
    (completion minus scheduled submission) in a per-tenant
    {!Platinum_stats.Hist}; the merged histogram yields the
    p50/p95/p99/p99.9 tail curves of the [serve] experiment, and
    {!result.fingerprint} is the determinism witness the tests pin. *)

type transport =
  | Ring  (** shared-memory ring in coherent pages *)
  | Rpc  (** port-based RPC to a server on the data's home *)
  | Frozen  (** serverless remote operation on frozen pages *)

val transport_name : transport -> string
val all_transports : transport list

type params = {
  tenants : int;
  clients_per_tenant : int;
  requests_per_client : int;
  process : Platinum_sim.Arrivals.process;  (** per-client arrival process *)
}

val params :
  ?tenants:int ->
  ?clients_per_tenant:int ->
  ?requests_per_client:int ->
  ?process:Platinum_sim.Arrivals.process ->
  unit ->
  params
(** Defaults: 4 tenants x 2 clients x 25 requests, Poisson at 4000 rps
    per client.  Every request reads and writes 8 tenant-state words and
    computes for 2 us; the ring transport uses 8-slot rings that poll
    every 2 us. *)

type tenant_row = {
  tenant : int;
  home : int;  (** the tenant's home processor/module *)
  submitted : int;
  completed : int;
  checksum : int;  (** fold of every response value (self-verification) *)
  hist_fp : string;  (** the tenant histogram's fingerprint *)
}

type result = {
  transport : string;
  nodes : int;
  clusters : int;
  tenants : int;
  clients : int;
  offered_rps : float;  (** aggregate open-loop offered load *)
  submitted : int;
  completed : int;
  elapsed_ns : int;
  achieved_rps : float;  (** completed / elapsed *)
  mean_ns : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;
  hist : Platinum_stats.Hist.t;  (** all tenants merged *)
  faults : int;  (** faults the plane injected (0 without a plane) *)
  retries : int;  (** recovery retries exercised *)
  per_tenant : tenant_row array;
  fingerprint : string;
      (** FNV-1a over every tenant row (counters and histogram) in tenant
          order, the protocol counters, the elapsed time and the fault
          plane's own fingerprint — byte-identical across reruns at equal
          [(params, config, seed, inject)], and with an idle (rate-0)
          plane attached vs no plane at all. *)
}

val run :
  ?config:Platinum_machine.Config.t ->
  ?inject:Platinum_sim.Inject.config ->
  ?check:bool ->
  ?coalesce:bool ->
  ?seed:int64 ->
  params ->
  transport ->
  result
(** Run one serving cell to completion on its own full PLATINUM instance
    (default machine: the 16-node Butterfly Plus).  [inject] attaches a
    fault plane; [check] arms ([true]) or disarms ([false]) the
    coherence invariant monitor, and any violation raises; either way
    the result is the same, only the host cost differs.  Without
    [check], the [PLATINUM_CHECK] environment variable decides
    ({!Platinum_core.Check.env_enabled}).  Requires [config.nprocs >= 2]. *)
