(* serve: the request-serving workload — open-loop traffic, tail-latency
   histograms, and SLO under faults (DESIGN.md section 4i).

   Three transports carry multi-tenant request traffic, one per way
   section 4.1 of the paper brings computation and data together: a
   shared-memory ring in coherent pages (the data's home serves), the
   port-based RPC path (the computation moves), and serverless remote
   operation on frozen pages (nothing moves).  Each cell runs an open-loop
   Poisson (or bursty MMPP) arrival schedule against per-tenant state and
   reports exact-to-bin-width p50/p95/p99/p99.9 from merged HDR
   histograms (Platinum_stats.Hist).

   Four measurements land in BENCH_serve.json:

   1. Throughput vs offered load and the latency tails, per transport, on
      a flat Butterfly Plus and a two-level hierarchical machine.  Gate:
      p99 is monotone non-decreasing in offered load for every
      (topology, transport) series — same seed, so the arrival schedule
      at a higher rate is the same uniform stream compressed, and a tail
      that *improves* under more load means the measurement is broken.

   2. Burstiness: MMPP arrivals vs Poisson at the same mean rate.

   3. SLO under faults: a 2% and a storm-rate (10%) fault grid per
      transport.  Gates: every cell still completes every request; a
      rate-0 plane attached reproduces the fault-free fingerprint
      byte-for-byte; and the storm actually exercised recovery — faults
      injected on every transport, retransmissions on the RPC path —
      since a fault run that never recovered anything proves nothing.

   4. Sharded-mesh serving: the Mesh.Serve program — open-loop rmw
      requests to per-cluster servers on the hosted kernel — over a
      (shards x domains) grid, clean and injected.  Gates: fingerprints
      byte-identical, every server's rmws atomic (the old values it
      returned are exactly 0 .. k-1), and p99 non-decreasing in load.

   The JSON contains no wall-clock times and no -j/--shards-dependent
   fields: a BENCH_serve.json is byte-identical across parallelism
   widths, which CI pins. *)

open Exp_common
module Serve = Platinum_serve.Serve
module Mesh = Platinum_scale.Mesh
module Parkernel = Platinum_scale.Parkernel
module Hist = Platinum_stats.Hist
module Arrivals = Platinum_sim.Arrivals
module Inject = Platinum_sim.Inject

let seed = 42L

(* --- topologies --- *)

let topologies = [ ("flat16", Config.butterfly_plus ()); ("hier64", Config.hierarchical ~cluster_size:8 ~nodes:64 ()) ]

(* --- cells --- *)

type row = {
  topo : string;
  r : Serve.result;
  rate : float;  (* injection rate; 0 = no plane *)
  process : string;
}

let process_name = function
  | Arrivals.Poisson _ -> "poisson"
  | Arrivals.Mmpp _ -> "mmpp"

let cell ?inject ?(rate = 0.0) ~topo ~config ~params transport =
  let r = Serve.run ~config ?inject ~coalesce:true ~seed params transport in
  { topo; r; rate; process = process_name params.Serve.process }

let row_json { topo; r; rate; process } =
  Printf.sprintf
    "    { \"transport\": %S, \"topology\": %S, \"nodes\": %d, \"clusters\": %d,\n\
    \      \"process\": %S, \"offered_rps\": %.0f, \"achieved_rps\": %.0f,\n\
    \      \"inject_rate\": %.3f, \"submitted\": %d, \"completed\": %d,\n\
    \      \"elapsed_ns\": %d, \"mean_ns\": %.0f, \"p50_ns\": %d, \"p95_ns\": %d,\n\
    \      \"p99_ns\": %d, \"p999_ns\": %d, \"faults\": %d, \"retries\": %d,\n\
    \      \"fingerprint\": %S }"
    r.Serve.transport topo r.Serve.nodes r.Serve.clusters process r.Serve.offered_rps
    r.Serve.achieved_rps rate r.Serve.submitted r.Serve.completed r.Serve.elapsed_ns
    r.Serve.mean_ns r.Serve.p50_ns r.Serve.p95_ns r.Serve.p99_ns r.Serve.p999_ns
    r.Serve.faults r.Serve.retries r.Serve.fingerprint

let print_rows rows =
  Printf.printf "%-7s %-7s %-8s %10s %10s %5s %9s %9s %9s %9s\n" "transp" "topo"
    "process" "offer-rps" "achv-rps" "inj%" "p50" "p95" "p99" "p99.9";
  List.iter
    (fun { topo; r; rate; process } ->
      Printf.printf "%-7s %-7s %-8s %10.0f %10.0f %5.1f %9s %9s %9s %9s\n"
        r.Serve.transport topo process r.Serve.offered_rps r.Serve.achieved_rps
        (100.0 *. rate) (Time_ns.to_string r.Serve.p50_ns)
        (Time_ns.to_string r.Serve.p95_ns) (Time_ns.to_string r.Serve.p99_ns)
        (Time_ns.to_string r.Serve.p999_ns))
    rows;
  Printf.printf "%!"

(* --- the experiment --- *)

let run (scale : scale) =
  section "serve: open-loop request serving over three transports (emits BENCH_serve.json)";
  let requests = if scale.full then 40 else 20 in
  let base_rps = 1_000.0 in
  let load_factors = if scale.full then [ 0.25; 0.5; 1.0; 2.0; 4.0 ] else [ 0.25; 0.5; 1.0; 2.0 ] in
  let params_at ?process f =
    let process =
      match process with
      | Some p -> p
      | None -> Arrivals.Poisson { rate_rps = base_rps *. f }
    in
    Serve.params ~tenants:4 ~clients_per_tenant:2 ~requests_per_client:requests ~process ()
  in

  subsection "throughput vs offered load, latency tails";
  let load_cells =
    List.concat_map
      (fun (topo, config) ->
        List.concat_map
          (fun transport ->
            List.map (fun f -> (topo, config, transport, f)) load_factors)
          Serve.all_transports)
      topologies
  in
  let load_rows =
    par_map
      (fun (topo, config, transport, f) -> cell ~topo ~config ~params:(params_at f) transport)
      load_cells
  in
  print_rows load_rows;

  (* p99 monotone non-decreasing in offered load, per (topology, transport):
     the load factors reuse one seed, so a higher rate replays the same
     arrival stream compressed — the tail cannot get better. *)
  List.iter
    (fun (topo, _) ->
      List.iter
        (fun transport ->
          let name = Serve.transport_name transport in
          let series =
            List.filter (fun row -> row.topo = topo && row.r.Serve.transport = name) load_rows
          in
          let p99s = List.map (fun row -> row.r.Serve.p99_ns) series in
          let rec monotone = function
            | a :: (b :: _ as rest) -> a <= b && monotone rest
            | _ -> true
          in
          gate
            (Printf.sprintf "%-7s %-7s p99 monotone in offered load: %s" name topo
               (String.concat " <= " (List.map Time_ns.to_string p99s)))
            (monotone p99s))
        Serve.all_transports)
    topologies;

  subsection "burstiness: MMPP vs Poisson at the same mean rate";
  let flat = List.assoc "flat16" topologies in
  let mmpp =
    (* Mean of (low + high) / 2 = base_rps: same offered load, burstier. *)
    Arrivals.Mmpp { low_rps = base_rps /. 2.0; high_rps = base_rps *. 1.5; dwell_ns = 4_000_000 }
  in
  let burst_cells =
    List.concat_map
      (fun transport ->
        [
          ("poisson", transport, params_at 1.0);
          ("mmpp", transport, params_at ~process:mmpp 1.0);
        ])
      Serve.all_transports
  in
  let burst_rows =
    par_map
      (fun (_, transport, params) -> cell ~topo:"flat16" ~config:flat ~params transport)
      burst_cells
  in
  print_rows burst_rows;

  subsection "SLO under faults (rate-0 plane, 2%, storm 10%)";
  let storm_rate = 0.10 in
  let fault_rates = [ 0.02; storm_rate ] in
  let fault_cells =
    List.concat_map
      (fun transport ->
        List.map
          (fun rate ->
            (transport, rate, Some (Inject.config ~seed:7L ~rate ())))
          fault_rates)
      Serve.all_transports
  in
  let fault_rows =
    par_map
      (fun (transport, rate, inject) ->
        cell ?inject ~rate ~topo:"flat16" ~config:flat ~params:(params_at 1.0) transport)
      fault_cells
  in
  (* Rate-0 differential: a plane that injects nothing must reproduce the
     fault-free cell byte-for-byte. *)
  let base_rows =
    List.filter (fun row -> row.topo = "flat16" && row.process = "poisson") load_rows
    |> List.filter (fun row -> row.r.Serve.offered_rps = base_rps *. 8.0)
  in
  let idle_rows =
    par_map
      (fun transport ->
        cell
          ~inject:(Inject.config ~seed:7L ~rate:0.0 ())
          ~topo:"flat16" ~config:flat ~params:(params_at 1.0) transport)
      Serve.all_transports
  in
  print_rows fault_rows;
  List.iter
    (fun (idle : row) ->
      let name = idle.r.Serve.transport in
      match List.find_opt (fun row -> row.r.Serve.transport = name) base_rows with
      | None -> gate (Printf.sprintf "%-7s fault-free baseline cell found" name) false
      | Some base ->
        gate
          (Printf.sprintf "%-7s rate-0 plane reproduces the fault-free fingerprint" name)
          (idle.r.Serve.fingerprint = base.r.Serve.fingerprint))
    idle_rows;
  List.iter
    (fun (row : row) ->
      let name = row.r.Serve.transport in
      gate
        (Printf.sprintf "%-7s %4.0f%%: every submitted request completed (%d/%d)" name
           (100.0 *. row.rate) row.r.Serve.completed row.r.Serve.submitted)
        (row.r.Serve.completed = row.r.Serve.submitted && row.r.Serve.submitted > 0);
      if row.rate >= storm_rate then begin
        gate
          (Printf.sprintf "%-7s storm actually injected faults (%d)" name row.r.Serve.faults)
          (row.r.Serve.faults > 0);
        if name = "rpc" then
          gate
            (Printf.sprintf "rpc     storm exercised retransmission (%d retries)"
               row.r.Serve.retries)
            (row.r.Serve.retries > 0)
      end)
    fault_rows;

  subsection "sharded mesh: Mesh.Serve over (shards x domains), clean + 2% injected";
  let mesh_config = Config.hierarchical ~cluster_size:16 ~nodes:64 () in
  let det_grid = [ (1, 1); (2, 1); (4, 2); (8, 4) ] in
  let mesh_rates = [ 0.0; 0.02 ] in
  let mesh_rps = [ 10_000.0; 200_000.0 ] in
  let mesh_rows =
    List.concat_map
      (fun inject_rate ->
        List.map
          (fun offered_rps ->
            let runs =
              List.map
                (fun (shards, domains) ->
                  Mesh.run ~shards ~domains ~inject_rate ~seed ~ops_per_node:25 ~offered_rps
                    ~config:mesh_config Mesh.Serve)
                det_grid
            in
            let what =
              Printf.sprintf "(rate %.2f, %.0f rps) over shards x domains" inject_rate
                offered_rps
            in
            let fp (m : Mesh.result) = m.Mesh.run.Parkernel.fingerprint in
            let m = List.hd runs in
            let identical = List.for_all (fun m' -> fp m' = fp m) runs in
            gate ("mesh serve fingerprint identical " ^ what) identical;
            gate ("mesh serve rmws atomic at every server " ^ what)
              (List.for_all (fun (m : Mesh.result) -> m.Mesh.run.Parkernel.verified) runs);
            (inject_rate, offered_rps, identical, m))
          mesh_rps)
      mesh_rates
  in
  List.iter
    (fun (rate, rps, _, (m : Mesh.result)) ->
      let h = m.Mesh.latency in
      Printf.printf
        "  mesh %4d nodes %8.0f rps/node inj %4.2f: requests=%d retries=%d p50=%s p99=%s p99.9=%s\n"
        m.Mesh.run.Parkernel.nodes rps rate (Hist.count h) m.Mesh.run.Parkernel.retries
        (Time_ns.to_string (Hist.p50 h)) (Time_ns.to_string (Hist.p99 h))
        (Time_ns.to_string (Hist.p999 h)))
    mesh_rows;
  (* The mesh tail must respond to offered load too. *)
  (match mesh_rows with
  | (_, _, _, lo) :: (_, _, _, hi) :: _ ->
    let p99 (m : Mesh.result) = Hist.p99 m.Mesh.latency in
    gate
      (Printf.sprintf "mesh p99 monotone in offered load (%s <= %s)"
         (Time_ns.to_string (p99 lo)) (Time_ns.to_string (p99 hi)))
      (p99 lo <= p99 hi)
  | _ -> ());

  let mesh_json =
    List.map
      (fun (rate, rps, identical, (m : Mesh.result)) ->
        let r = m.Mesh.run and h = m.Mesh.latency in
        Printf.sprintf
          "    { \"nodes\": %d, \"offered_rps_per_node\": %.0f, \"inject_rate\": %.3f,\n\
          \      \"requests\": %d, \"retries\": %d, \"faults\": %d, \"p50_ns\": %d,\n\
          \      \"p95_ns\": %d, \"p99_ns\": %d, \"p999_ns\": %d, \"verified\": %b,\n\
          \      \"grid_identical\": %b, \"fingerprint\": %S }"
          r.Parkernel.nodes rps rate (Hist.count h) r.Parkernel.retries r.Parkernel.faults
          (Hist.p50 h) (Hist.p95 h) (Hist.p99 h) (Hist.p999 h) r.Parkernel.verified identical
          r.Parkernel.fingerprint)
      mesh_rows
  in

  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"serve\",\n\
    \  \"host\": %s,\n\
    \  \"seed\": %Ld,\n\
    \  \"requests_per_client\": %d,\n\
    \  \"base_rps_per_client\": %.0f,\n\
    \  \"storm_rate\": %.2f,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"burst_rows\": [\n%s\n  ],\n\
    \  \"fault_rows\": [\n%s\n  ],\n\
    \  \"mesh_rows\": [\n%s\n  ]\n\
     }\n"
    (host_json ()) seed requests base_rps storm_rate
    (String.concat ",\n" (List.map row_json load_rows))
    (String.concat ",\n" (List.map row_json burst_rows))
    (String.concat ",\n" (List.map row_json (fault_rows @ idle_rows)))
    (String.concat ",\n" mesh_json);
  close_out oc;
  Printf.printf "  wrote BENCH_serve.json\n%!";
  exit_on_missed_gates ~tag:"SERVE_FAIL" "a determinism, monotonicity, coverage or oracle gate"
