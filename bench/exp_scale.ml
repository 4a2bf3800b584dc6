(* scale: the sharded engine driving machines past the Butterfly.

   Four message-level workloads (remote word traffic, shootdown storms,
   RPC echo, open-loop serving) run on hierarchical machines of hundreds
   to a thousand nodes, one engine per node, with the nodes split into
   shards ([--shards]) advanced by the domain pool ([-j]).  A second
   section hosts a full kernel simulation per node on the same window
   loop.  Two things are measured:

   - determinism: every workload's fingerprint is byte-identical across a
     (shards x domains) grid — the sharded engine's load-bearing contract,
     asserted on every host (a 1-core machine still runs the domains);
   - throughput: host events/sec and simulated-words/sec per topology at
     the configured shard/domain counts, landing in BENCH_scale.json.

   The JSON is labelled "parallelism": "shard" — intra-simulation
   parallelism, one event queue split across domains — as opposed to
   BENCH_sweep.json's "grid" (independent simulations side by side), so
   the two speedup kinds stay comparable but never conflated.  The shard
   speedup comparison itself is only asserted where the host has the
   cores (parallel_meaningful), like the sweep. *)

open Exp_common
module Scale = Platinum_scale.Scale
module Parkernel = Platinum_scale.Parkernel

let seed = 42L

(* --- determinism cells --- *)

let det_grid = [ (1, 1); (2, 1); (4, 2); (8, 4) ]

let determinism_ok ~config ~ops =
  List.for_all
    (fun w ->
      let fp (shards, domains) =
        (Scale.run ~shards ~domains ~inject_rate:0.02 ~seed ~ops_per_node:ops
           ~config w)
          .Scale.fingerprint
      in
      let fps = List.map fp det_grid in
      let ok = List.for_all (( = ) (List.hd fps)) fps in
      check_shape
        (Printf.sprintf "%-7s fingerprint identical over shards x domains %s"
           (Scale.workload_name w)
           (String.concat " "
              (List.map (fun (s, d) -> Printf.sprintf "(%d,%d)" s d) det_grid)))
        ok;
      ok)
    Scale.all_workloads

(* --- throughput rows --- *)

type row = {
  r : Scale.result;
  clusters : int;
  lookahead_ns : int;
  wall_s : float;
}

let measure ~config ~ops ~shards ~domains w =
  let t0 = Unix.gettimeofday () in
  let r = Scale.run ~shards ~domains ~seed ~ops_per_node:ops ~config w in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    r;
    clusters = Config.clusters config;
    lookahead_ns = Scale.lookahead config w;
    wall_s;
  }

let row_json { r; clusters; lookahead_ns; wall_s } =
  Printf.sprintf
    "    { \"workload\": %S, \"nodes\": %d, \"clusters\": %d, \"shards\": %d,\n\
    \      \"domains\": %d, \"lookahead_ns\": %d, \"events\": %d, \"windows\": %d,\n\
    \      \"sim_ns\": %d, \"wall_s\": %.6f, \"events_per_sec\": %.0f,\n\
    \      \"words_per_sec\": %.0f, \"fingerprint\": %S }"
    r.Scale.workload r.Scale.nodes clusters r.Scale.run_shards r.Scale.run_domains
    lookahead_ns r.Scale.events r.Scale.windows r.Scale.clock wall_s
    (float_of_int r.Scale.events /. wall_s)
    (float_of_int r.Scale.words /. wall_s)
    r.Scale.fingerprint

(* --- hosted-kernel rows: the kernel simulation itself under Shard --- *)

type krow = {
  kr : Parkernel.result;
  k_clusters : int;
  k_lookahead_ns : int;
  k_wall_s : float;
}

let kmeasure ~config ~shards ~domains ?(iters = 3) ?span_words w =
  let t0 = Unix.gettimeofday () in
  let r = Parkernel.run ~shards ~domains ~seed ~iters ~width:64 ?span_words ~config w in
  let k_wall_s = Unix.gettimeofday () -. t0 in
  {
    kr = r;
    k_clusters = Config.clusters config;
    k_lookahead_ns = Parkernel.lookahead config;
    k_wall_s;
  }

let krow_json ?(gb = false) { kr = r; k_clusters; k_lookahead_ns; k_wall_s } =
  Printf.sprintf
    "    { \"workload\": %S, \"gb_variant\": %b, \"nodes\": %d, \"clusters\": %d,\n\
    \      \"shards\": %d, \"domains\": %d, \"lookahead_ns\": %d, \"events\": %d,\n\
    \      \"windows\": %d, \"sim_ns\": %d, \"wall_s\": %.6f, \"events_per_sec\": %.0f,\n\
    \      \"words_per_sec\": %.0f, \"span_words\": %d, \"touched_pages\": %d,\n\
    \      \"setup_ms\": %.2f, \"verified\": %b, \"fingerprint\": %S }"
    r.Parkernel.workload gb r.Parkernel.nodes k_clusters r.Parkernel.run_shards
    r.Parkernel.run_domains k_lookahead_ns r.Parkernel.events r.Parkernel.windows
    r.Parkernel.clock k_wall_s
    (float_of_int r.Parkernel.events /. k_wall_s)
    (float_of_int r.Parkernel.words /. k_wall_s)
    r.Parkernel.span_words r.Parkernel.touched_pages r.Parkernel.setup_ms
    r.Parkernel.verified r.Parkernel.fingerprint

let kernel_determinism_ok ~config =
  List.for_all
    (fun w ->
      let fp (shards, domains) =
        (Parkernel.run ~shards ~domains ~inject_rate:0.02 ~seed ~iters:3 ~width:64
           ~ops_per_node:12 ~config w)
          .Parkernel.fingerprint
      in
      let fps = List.map fp det_grid in
      let ok = List.for_all (( = ) (List.hd fps)) fps in
      check_shape
        (Printf.sprintf
           "kernel %-8s fingerprint identical over shards x domains %s (2%% injection)"
           (Parkernel.workload_name w)
           (String.concat " "
              (List.map (fun (s, d) -> Printf.sprintf "(%d,%d)" s d) det_grid)))
        ok;
      ok)
    [ Parkernel.Jacobi; Parkernel.Rpc_echo ]

let run (scale : scale) =
  section "scale: sharded engine over hierarchical machines (emits BENCH_scale.json)";
  let shards = Par.get_shards () in
  let domains = Par.get_jobs () in
  let node_counts = if scale.full then [ 64; 256; 1024 ] else [ 64; 256 ] in
  let ops = if scale.full then 50 else 25 in
  Printf.printf
    "topologies: %s nodes (clusters of 16); --shards %d, -j %d domain(s)\n%!"
    (String.concat ", " (List.map string_of_int node_counts))
    shards domains;

  (* --- message-level workloads --- *)
  subsection "determinism across shard and domain counts (2% injection)";
  let det_config = Config.hierarchical ~cluster_size:16 ~nodes:64 () in
  let identical = determinism_ok ~config:det_config ~ops in

  subsection "throughput vs topology";
  let rows =
    List.concat_map
      (fun nodes ->
        let config = Config.hierarchical ~cluster_size:16 ~nodes () in
        List.map (measure ~config ~ops ~shards ~domains) Scale.all_workloads)
      node_counts
  in
  Printf.printf "%-8s %6s %9s %9s %12s %14s %14s\n" "workload" "nodes" "events"
    "windows" "sim-time" "events/s" "sim-words/s";
  List.iter
    (fun { r; wall_s; _ } ->
      Printf.printf "%-8s %6d %9d %9d %12s %14.0f %14.0f\n" r.Scale.workload
        r.Scale.nodes r.Scale.events r.Scale.windows
        (Time_ns.to_string r.Scale.clock)
        (float_of_int r.Scale.events /. wall_s)
        (float_of_int r.Scale.words /. wall_s))
    rows;

  (* Shard speedup: the same largest-topology run at 1 domain vs the pool.
     Host parallelism inside ONE simulation — meaningless on a host without
     the cores, so (like the sweep) the comparison is skipped there while
     the determinism assertions above always run. *)
  let parallel_meaningful = Par.default_jobs () > 1 in
  let shard_speedup =
    if not parallel_meaningful then begin
      Printf.printf
        "\n  (host has %d core(s): shard speedup not meaningful, skipped)\n"
        (Par.default_jobs ());
      None
    end
    else begin
      let nodes = List.fold_left max 0 node_counts in
      let config = Config.hierarchical ~cluster_size:16 ~nodes () in
      let pool = max 2 domains in
      let s1 = measure ~config ~ops ~shards:pool ~domains:1 Scale.Traffic in
      let sp = measure ~config ~ops ~shards:pool ~domains:pool Scale.Traffic in
      let speedup = s1.wall_s /. sp.wall_s in
      Printf.printf "\n  traffic/%d nodes, %d shards: 1 domain %.3f s, %d domains %.3f s (%.2fx)\n"
        nodes pool s1.wall_s pool sp.wall_s speedup;
      check_shape "sharded run byte-identical at 1 domain vs pool"
        (s1.r.Scale.fingerprint = sp.r.Scale.fingerprint);
      if Par.default_jobs () >= 4 then
        check_shape "shard pool at least breaks even on a >=4-core host"
          (speedup >= 1.0);
      Some speedup
    end
  in
  check_shape "fingerprints identical across the shards x domains grid" identical;
  check_shape
    (Printf.sprintf "largest topology >= 256 nodes (%d)"
       (List.fold_left max 0 node_counts))
    (List.fold_left max 0 node_counts >= 256);

  (* --- hosted kernel: the full kernel simulation under Shard --- *)
  subsection "hosted kernel: determinism across shard and domain counts";
  let kdet_config = Config.hierarchical ~cluster_size:4 ~nodes:8 () in
  let kernel_identical = kernel_determinism_ok ~config:kdet_config in

  subsection "hosted kernel: throughput vs topology";
  let krows =
    List.concat_map
      (fun nodes ->
        let config = Config.hierarchical ~cluster_size:16 ~nodes () in
        List.map
          (fun w -> (false, kmeasure ~config ~shards ~domains w))
          [ Parkernel.Jacobi; Parkernel.Gauss ])
      node_counts
  in
  (* The GB-span variant: a >= 2^27-word address space on the largest
     topology.  The chunked page tables keep resident memory proportional
     to the touched footprint, so this costs the same events as the dense
     run — the row records span_words and touched_pages as evidence. *)
  let gb_span = 1 lsl 27 in
  let gb_row =
    let nodes = List.fold_left max 0 node_counts in
    let config = Config.hierarchical ~cluster_size:16 ~nodes () in
    ( true,
      kmeasure ~config ~shards ~domains ~span_words:gb_span Parkernel.Jacobi )
  in
  let krows = krows @ [ gb_row ] in
  Printf.printf "%-8s %6s %12s %8s %9s %12s %12s %9s\n" "workload" "nodes"
    "span-words" "pages" "events" "sim-time" "events/s" "setup-ms";
  List.iter
    (fun (_, { kr = r; k_wall_s; _ }) ->
      Printf.printf "%-8s %6d %12d %8d %9d %12s %12.0f %9.2f\n"
        r.Parkernel.workload r.Parkernel.nodes r.Parkernel.span_words
        r.Parkernel.touched_pages r.Parkernel.events
        (Time_ns.to_string r.Parkernel.clock)
        (float_of_int r.Parkernel.events /. k_wall_s)
        r.Parkernel.setup_ms)
    krows;
  List.iter
    (fun (gb, { kr = r; _ }) ->
      check_shape
        (Printf.sprintf "kernel %s/%d nodes%s oracle-verified" r.Parkernel.workload
           r.Parkernel.nodes
           (if gb then " (GB span)" else ""))
        r.Parkernel.verified)
    krows;
  (let _, { kr = gr; _ } = gb_row in
   check_shape
     (Printf.sprintf "GB variant: %d-word span, %d touched pages, setup %.2f ms"
        gr.Parkernel.span_words gr.Parkernel.touched_pages gr.Parkernel.setup_ms)
     (gr.Parkernel.span_words >= gb_span
     && gr.Parkernel.touched_pages * 64 < gr.Parkernel.span_words
     && gr.Parkernel.setup_ms < 100.0));

  (* Kernel shard speedup, same shape and gating as the message-level one. *)
  let kernel_shard_speedup =
    if not parallel_meaningful then begin
      Printf.printf
        "\n  (host has %d core(s): kernel shard speedup not meaningful, skipped)\n"
        (Par.default_jobs ());
      None
    end
    else begin
      let nodes = List.fold_left max 0 node_counts in
      let config = Config.hierarchical ~cluster_size:16 ~nodes () in
      let pool = max 2 domains in
      let k1 = kmeasure ~config ~shards:pool ~domains:1 Parkernel.Jacobi in
      let kp = kmeasure ~config ~shards:pool ~domains:pool Parkernel.Jacobi in
      let speedup = k1.k_wall_s /. kp.k_wall_s in
      Printf.printf
        "\n  jacobi/%d nodes, %d shards: 1 domain %.3f s, %d domains %.3f s (%.2fx)\n"
        nodes pool k1.k_wall_s pool kp.k_wall_s speedup;
      check_shape "hosted kernel byte-identical at 1 domain vs pool"
        (k1.kr.Parkernel.fingerprint = kp.kr.Parkernel.fingerprint);
      if Par.default_jobs () >= 4 then
        check_shape "kernel shard pool at least breaks even on a >=4-core host"
          (speedup >= 1.0);
      Some speedup
    end
  in
  check_shape "kernel fingerprints identical across the shards x domains grid"
    kernel_identical;

  let null_or_speedup = function
    | Some s -> Printf.sprintf "%.2f" s
    | None -> "null"
  in
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"scale\",\n\
    \  \"parallelism\": \"shard\",\n\
    \  \"host\": %s,\n\
    \  \"shards\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"ops_per_node\": %d,\n\
    \  \"determinism\": %s,\n\
    \  \"parallel_meaningful\": %b,\n\
    \  \"shard_speedup\": %s,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"kernel_determinism\": { \"workloads\": 2, \"cells_per_workload\": %d, \"identical\": %b },\n\
    \  \"kernel_shard_speedup\": %s,\n\
    \  \"kernel_rows\": [\n%s\n  ]\n\
     }\n"
    (host_json ()) shards domains ops
    (Printf.sprintf
       "{ \"workloads\": %d, \"cells_per_workload\": %d, \"identical\": %b }"
       (List.length Scale.all_workloads)
       (List.length det_grid) identical)
    parallel_meaningful
    (null_or_speedup shard_speedup)
    (String.concat ",\n" (List.map row_json rows))
    (List.length det_grid) kernel_identical
    (null_or_speedup kernel_shard_speedup)
    (String.concat ",\n" (List.map (fun (gb, k) -> krow_json ~gb k) krows));
  close_out oc;
  Printf.printf "  wrote BENCH_scale.json\n%!"
