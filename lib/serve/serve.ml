(* The serving workload: open-loop multi-tenant request traffic over the
   three §4.1 transports, measured with per-tenant latency histograms.

   Determinism: every random draw — arrival gaps and request arguments —
   comes from per-client generators split off one master Rng in fixed
   (tenant, client) order, and everything else is simulated time, so a run
   is a pure function of (params, config, seed, inject).  The fingerprint
   folds per-tenant counters, per-tenant histograms, the protocol counters
   and the fault plane's own fingerprint; test_serve.ml pins it across
   reruns, -j widths and (for the sharded mesh variant in Platinum_scale)
   shard/domain widths. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Inject = Platinum_sim.Inject
module Rng = Platinum_sim.Rng
module Fnv = Platinum_sim.Fnv
module Arrivals = Platinum_sim.Arrivals
module Hist = Platinum_stats.Hist
module Runner = Platinum_runner.Runner
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Check = Platinum_core.Check
module Api = Platinum_kernel.Api
module Memsys = Platinum_kernel.Memsys

type transport = Ring | Rpc | Frozen

let transport_name = function Ring -> "ring" | Rpc -> "rpc" | Frozen -> "frozen"
let all_transports = [ Ring; Rpc; Frozen ]

type params = {
  tenants : int;
  clients_per_tenant : int;
  requests_per_client : int;
  process : Arrivals.process;
}

let params ?(tenants = 4) ?(clients_per_tenant = 2) ?(requests_per_client = 25)
    ?(process = Arrivals.Poisson { rate_rps = 4_000.0 }) () =
  if tenants <= 0 || clients_per_tenant <= 0 || requests_per_client < 0 then
    invalid_arg "Serve.params: tenants/clients/requests out of range";
  { tenants; clients_per_tenant; requests_per_client; process }

(* Every request reads and writes [work_words] tenant-state words and
   computes for [service_ns]; each ring has [ring_slots] slots. *)
let work_words = 8
let service_ns = 2_000
let ring_slots = 8

type tenant_row = {
  tenant : int;
  home : int;
  submitted : int;
  completed : int;
  checksum : int;
  hist_fp : string;
}

type result = {
  transport : string;
  nodes : int;
  clusters : int;
  tenants : int;
  clients : int;
  offered_rps : float;
  submitted : int;
  completed : int;
  elapsed_ns : int;
  achieved_rps : float;
  mean_ns : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;
  hist : Hist.t;
  faults : int;
  retries : int;
  per_tenant : tenant_row array;
  fingerprint : string;
}

(* Host-side per-tenant accumulator; mutated only from inside the (single
   host domain) simulation. *)
type tenant = {
  idx : int;
  t_home : int;
  state : int;  (* base vaddr of the tenant's state page *)
  t_ring : Ring.t option;
  t_hist : Hist.t;
  mutable t_submitted : int;
  mutable t_completed : int;
  mutable t_check : int;
}

(* One request's work against the tenant state: a word run (read + write
   per word — the shape the coalescing fast path drains inline when the
   page is a clean local hit), one atomic rmw on the request-counter
   word, and some pure compute. *)
let do_work ~state arg =
  let acc = ref 0 in
  for i = 1 to work_words - 1 do
    let v = Api.read (state + i) in
    Api.write (state + i) (v + arg);
    acc := !acc + v
  done;
  let seq = Api.rmw state (fun v -> v + 1) in
  Api.compute service_ns;
  !acc + seq + arg

(* Request arguments are deterministic in (tenant, client, k): the
   checksum a transport reports is comparable across transports only in
   being reproducible, not in value (execution interleaving differs). *)
let request_arg ~tenant ~client ~k = 1 + (((tenant * 131) + (client * 17) + k) land 0xff)

(* The open-loop generator: arrival times are absolute, accumulated from
   the seeded gap stream, so a submission that blocked (ring backpressure,
   RPC retransmission sleep) delays later submissions but never stretches
   the schedule itself — a backlog forms and drains, as real open-loop
   load would. *)
let client_loop gen ~requests ~submit =
  let next_at = ref (Api.now ()) in
  for k = 1 to requests do
    next_at := !next_at + Arrivals.next_gap_ns gen;
    let now = Api.now () in
    if !next_at > now then Api.sleep (!next_at - now);
    (* The stamp is the scheduled arrival, not the submit instant: if a
       blocked submission backlogged this client, the wait counts as
       latency — the request "arrived" on schedule and queued. *)
    submit ~stamp:!next_at k
  done

let run ?config ?inject ?check ?(coalesce = true) ?(seed = 42L) (p : params) transport =
  let config = match config with Some c -> c | None -> Config.butterfly_plus () in
  let nprocs = config.Config.nprocs in
  if nprocs < 2 then invalid_arg "Serve.run: need at least 2 processors";
  let setup = Runner.make ~config ?inject ~coalesce () in
  (* [Runner.make] has armed the monitor from the environment; an
     explicit [check] overrides that either way. *)
  Option.iter
    (fun on ->
      Coherent.set_monitor setup.Runner.coherent
        (if on then Some (Check.create_monitor ()) else None))
    check;
  (* Stride tenant homes across the whole machine and scatter each
     tenant's clients around its home — on a hierarchical topology roughly
     half the client traffic then crosses clusters, so the fabric actually
     shows up in the tails (bunching everything into node 0's cluster
     would make every topology measure the same machine). *)
  let stride = Int.max 1 (nprocs / p.tenants) in
  let home t = t * stride mod nprocs in
  let client_proc t c =
    let pr = (home t + 1 + (c * Int.max 1 (stride / 2))) mod nprocs in
    if pr = home t then (pr + 1) mod nprocs else pr
  in
  (* Per-client arrival generators, split off in fixed order. *)
  let master = Rng.create seed in
  let gens =
    Array.init (p.tenants * p.clients_per_tenant) (fun _ ->
        Arrivals.create ~rng:(Rng.split master) p.process)
  in
  let gen ~tenant ~client = gens.((tenant * p.clients_per_tenant) + client) in
  let tenants = ref [||] in
  let main () =
    let ts =
      Array.init p.tenants (fun i ->
          let state = Api.alloc_pages 1 in
          let ring =
            match transport with
            | Ring ->
              Some (Ring.create ~slots:ring_slots ~slot_words:2 ())
            | Rpc | Frozen -> None
          in
          {
            idx = i;
            t_home = home i;
            state;
            t_ring = ring;
            t_hist = Hist.create ();
            t_submitted = 0;
            t_completed = 0;
            t_check = 0;
          })
    in
    tenants := ts;
    let expected = p.clients_per_tenant * p.requests_per_client in
    let complete (t : tenant) ~stamp r =
      Hist.record t.t_hist (Api.now () - stamp);
      t.t_completed <- t.t_completed + 1;
      t.t_check <- t.t_check + (r land 0xffffff)
    in
    (* Per-transport servers and client submit functions. *)
    let server_tids = ref [] in
    let rpc_servers = ref [] in
    let submit_of (t : tenant) c =
      match transport with
      | Ring ->
        let ring = match t.t_ring with Some r -> r | None -> assert false in
        fun ~stamp k ->
          t.t_submitted <- t.t_submitted + 1;
          Ring.push ring [| stamp; request_arg ~tenant:t.idx ~client:c ~k |]
      | Rpc ->
        let server =
          match List.assq_opt t.idx !rpc_servers with
          | Some s -> s
          | None -> assert false
        in
        fun ~stamp k ->
          t.t_submitted <- t.t_submitted + 1;
          (* Fire and forget: the handler records completion server-side,
             so nobody needs to await the reply thunk. *)
          let (_reply : unit -> int array) =
            Platinum_kernel.Rpc.call_async server
              [| stamp; request_arg ~tenant:t.idx ~client:c ~k |]
          in
          ()
      | Frozen ->
        fun ~stamp k ->
          t.t_submitted <- t.t_submitted + 1;
          let arg = request_arg ~tenant:t.idx ~client:c ~k in
          (* Ship the computation nowhere: a worker on the client's own
             processor operates on the frozen page remotely. *)
          ignore
            (Api.spawn ~proc:(client_proc t.idx c) (fun () ->
                 let r = do_work ~state:t.state arg in
                 complete t ~stamp r))
    in
    (* Transport-specific setup. *)
    Array.iter
      (fun (t : tenant) ->
        match transport with
        | Ring ->
          let ring = match t.t_ring with Some r -> r | None -> assert false in
          let tid =
            Api.spawn ~proc:t.t_home (fun () ->
                for _ = 1 to expected do
                  let msg = Ring.pop ring in
                  let r = do_work ~state:t.state msg.(1) in
                  complete t ~stamp:msg.(0) r
                done)
          in
          server_tids := tid :: !server_tids
        | Rpc ->
          let server =
            Platinum_kernel.Rpc.serve ~proc:t.t_home (fun args ->
                let r = do_work ~state:t.state args.(1) in
                complete t ~stamp:args.(0) r;
                [| r |])
          in
          rpc_servers := (t.idx, server) :: !rpc_servers
        | Frozen ->
          (* Create the state page, collapse it to the tenant's home and
             freeze it there: every client access is a remote word op. *)
          for i = 0 to work_words - 1 do
            Api.write (t.state + i) 0
          done;
          Api.advise t.state work_words (Memsys.Home t.t_home);
          Api.advise t.state work_words Memsys.Freeze)
      ts;
    (* Clients: one thread per (tenant, client), placed off the home. *)
    let client_bodies =
      List.concat_map
        (fun (t : tenant) ->
          List.init p.clients_per_tenant (fun c ->
              let submit = submit_of t c in
              fun (_ : int) ->
                client_loop
                  (gen ~tenant:t.idx ~client:c)
                  ~requests:p.requests_per_client ~submit))
        (Array.to_list ts)
    in
    let procs =
      List.concat_map
        (fun (t : tenant) -> List.init p.clients_per_tenant (client_proc t.idx))
        (Array.to_list ts)
    in
    (* The frozen transport's workers are spawned per request and joined
       implicitly: run returns when every thread finishes.  Ring servers
       exit after [expected] pops; RPC servers get an orderly shutdown
       once every client has submitted everything. *)
    Api.spawn_join_all ~procs client_bodies;
    List.iter (fun (_, s) -> Platinum_kernel.Rpc.shutdown s) !rpc_servers;
    List.iter Api.join !server_tids
  in
  let r = Runner.run setup ~main in
  let ts = !tenants in
  let merged = Hist.create () in
  Array.iter (fun t -> Hist.merge ~into:merged t.t_hist) ts;
  let per_tenant =
    Array.map
      (fun t ->
        {
          tenant = t.idx;
          home = t.t_home;
          submitted = t.t_submitted;
          completed = t.t_completed;
          checksum = t.t_check;
          hist_fp = Hist.fingerprint t.t_hist;
        })
      ts
  in
  let c = Coherent.counters setup.Runner.coherent in
  let inj = Machine.inject setup.Runner.machine in
  let h = Fnv.create () in
  let mixin = Fnv.int h and mixs = Fnv.string h in
  Array.iter
    (fun (row : tenant_row) ->
      mixin row.tenant;
      mixin row.home;
      mixin row.submitted;
      mixin row.completed;
      mixin row.checksum;
      mixs row.hist_fp)
    per_tenant;
  mixin r.Runner.elapsed;
  mixin c.Counters.read_faults;
  mixin c.Counters.write_faults;
  mixin c.Counters.vm_faults;
  mixin c.Counters.replications;
  mixin c.Counters.migrations;
  mixin c.Counters.remote_maps;
  mixin c.Counters.freezes;
  mixin c.Counters.thaws;
  mixin c.Counters.shootdowns;
  mixin c.Counters.atc_reloads;
  (* No plane mixes the canonical idle-plane fingerprint, so a rate-0
     plane that injected nothing fingerprints identically to running with
     no plane attached at all. *)
  (match inj with
  | Some i -> mixs (Inject.fingerprint i)
  | None -> mixs (Inject.fingerprint (Inject.create (Inject.config ~rate:0.0 ()))));
  let submitted = Array.fold_left (fun a (t : tenant_row) -> a + t.submitted) 0 per_tenant in
  let completed = Array.fold_left (fun a (t : tenant_row) -> a + t.completed) 0 per_tenant in
  let elapsed = r.Runner.elapsed in
  {
    transport = transport_name transport;
    nodes = nprocs;
    clusters = Config.clusters config;
    tenants = p.tenants;
    clients = p.tenants * p.clients_per_tenant;
    offered_rps =
      float_of_int (p.tenants * p.clients_per_tenant) *. Arrivals.mean_rps p.process;
    submitted;
    completed;
    elapsed_ns = elapsed;
    achieved_rps =
      (if elapsed = 0 then 0.0 else float_of_int completed *. 1e9 /. float_of_int elapsed);
    mean_ns = Hist.mean merged;
    p50_ns = Hist.p50 merged;
    p95_ns = Hist.p95 merged;
    p99_ns = Hist.p99 merged;
    p999_ns = Hist.p999 merged;
    hist = merged;
    faults = (match inj with None -> 0 | Some i -> Inject.faults_injected i);
    retries = (match inj with None -> 0 | Some i -> Inject.retries i);
    per_tenant;
    fingerprint = Fnv.to_hex h;
  }
