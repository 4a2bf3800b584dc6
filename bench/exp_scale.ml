(* scale: the sharded engine driving machines past the Butterfly.

   Every run here is the hosted kernel (Platinum_scale.Parkernel): one
   complete kernel simulation per node on hierarchical machines of
   hundreds to a thousand nodes, with the nodes split into shards
   ([--shards]) advanced by the domain pool ([-j]).  Two families share
   one row shape, one determinism check and one speedup measurement:

   - the mesh workloads: Mesh's traffic, storm and serve programs and
     Parkernel's rpc_echo;
   - the kernel workloads: jacobi, plus a GB-span jacobi.

   A last table runs the hosted jacobi and rpc_echo programs on 16
   hosted nodes and on the sequential 16-node Butterfly Plus under the
   paper's protocol (Runner.run_program), side by side, with no tolerance
   claimed; the only gate is each program's oracle on both machines.

   Two things are measured:

   - determinism: every workload's fingerprint is byte-identical across a
     (shards x domains) grid, and every cell is verified — its program's
     oracle and the protocol's at-rest check (Homemem.at_rest_ok) both
     hold.  This is the sharded engine's load-bearing contract, asserted
     on every host (a 1-core machine still runs the domains);
   - throughput: host events/sec and simulated-words/sec per topology at
     the configured shard/domain counts, landing in BENCH_scale.json.

   Every check is a gate: the experiment exits 1 if any misses.  The JSON
   is labelled "parallelism": "shard" — intra-simulation parallelism, one
   event queue split across domains — as opposed to BENCH_sweep.json's
   "grid" (independent simulations side by side), so the two speedup kinds
   stay comparable but never conflated.  The shard speedup comparison
   itself is only asserted where the host has the cores
   (parallel_meaningful), like the sweep. *)

open Exp_common
module Parkernel = Platinum_scale.Parkernel
module Mesh = Platinum_scale.Mesh
module Program = Platinum_kernel.Program

let seed = 42L

(* A workload: its name and how to run one cell of it. *)
type workload = {
  name : string;
  run : config:Config.t -> shards:int -> domains:int -> inject_rate:float -> Parkernel.result;
}

let mesh ~ops w =
  {
    name = Mesh.workload_name w;
    run =
      (fun ~config ~shards ~domains ~inject_rate ->
        (Mesh.run ~shards ~domains ~inject_rate ~seed ~ops_per_node:ops ~config w).Mesh.run);
  }

let kernel ?span_words ~ops w =
  {
    name = Parkernel.workload_name w;
    run =
      (fun ~config ~shards ~domains ~inject_rate ->
        Parkernel.run ~shards ~domains ~inject_rate ~seed ~iters:3 ~width:64 ~ops_per_node:ops
          ?span_words ~config w);
  }

(* --- determinism cells --- *)

let det_grid = [ (1, 1); (2, 1); (4, 2); (8, 4) ]

let determinism_ok ~label ~config workloads =
  List.for_all
    (fun w ->
      let runs =
        List.map
          (fun (shards, domains) -> w.run ~config ~shards ~domains ~inject_rate:0.02)
          det_grid
      in
      let fp0 = (List.hd runs).Parkernel.fingerprint in
      let ok =
        List.for_all
          (fun (r : Parkernel.result) -> r.Parkernel.fingerprint = fp0 && r.Parkernel.verified)
          runs
      in
      gate
        (Printf.sprintf
           "%s %-8s fingerprint identical and verified over shards x domains %s (2%% injection)"
           label w.name
           (String.concat " " (List.map (fun (s, d) -> Printf.sprintf "(%d,%d)" s d) det_grid)))
        ok;
      ok)
    workloads

(* --- throughput rows --- *)

type row = {
  r : Parkernel.result;
  gb : bool;  (* the GB-span variant *)
  clusters : int;
  lookahead_ns : int;
  wall_s : float;
}

let measure ?(gb = false) ~config ~shards ~domains w =
  let t0 = Unix.gettimeofday () in
  let r = w.run ~config ~shards ~domains ~inject_rate:0.0 in
  let wall_s = Unix.gettimeofday () -. t0 in
  { r; gb; clusters = Config.clusters config; lookahead_ns = Config.lookahead_ns config; wall_s }

let row_json { r; gb; clusters; lookahead_ns; wall_s } =
  Printf.sprintf
    "    { \"workload\": %S, \"gb_variant\": %b, \"nodes\": %d, \"clusters\": %d,\n\
    \      \"shards\": %d, \"domains\": %d, \"lookahead_ns\": %d, \"events\": %d,\n\
    \      \"windows\": %d, \"sim_ns\": %d, \"wall_s\": %.6f, \"events_per_sec\": %.0f,\n\
    \      \"words_per_sec\": %.0f, \"span_words\": %d, \"touched_pages\": %d,\n\
    \      \"setup_ms\": %.2f, \"verified\": %b, \"fingerprint\": %S }"
    r.Parkernel.workload gb r.Parkernel.nodes clusters r.Parkernel.run_shards
    r.Parkernel.run_domains lookahead_ns r.Parkernel.events r.Parkernel.windows
    r.Parkernel.clock wall_s
    (float_of_int r.Parkernel.events /. wall_s)
    (float_of_int r.Parkernel.words /. wall_s)
    r.Parkernel.span_words r.Parkernel.touched_pages r.Parkernel.setup_ms
    r.Parkernel.verified r.Parkernel.fingerprint

let print_rows rows =
  Printf.printf "%-8s %6s %12s %8s %9s %12s %12s %9s\n" "workload" "nodes" "span-words"
    "pages" "events" "sim-time" "events/s" "setup-ms";
  List.iter
    (fun { r; wall_s; _ } ->
      Printf.printf "%-8s %6d %12d %8d %9d %12s %12.0f %9.2f\n" r.Parkernel.workload
        r.Parkernel.nodes r.Parkernel.span_words r.Parkernel.touched_pages r.Parkernel.events
        (Time_ns.to_string r.Parkernel.clock)
        (float_of_int r.Parkernel.events /. wall_s)
        r.Parkernel.setup_ms)
    rows;
  List.iter
    (fun { r; gb; _ } ->
      gate
        (Printf.sprintf "%s/%d nodes%s oracle-verified" r.Parkernel.workload r.Parkernel.nodes
           (if gb then " (GB span)" else ""))
        r.Parkernel.verified)
    rows

(* Shard speedup: the same largest-topology run at 1 domain vs the pool.
   Host parallelism inside ONE simulation — meaningless on a host without
   the cores, so (like the sweep) the comparison is skipped there while
   the determinism gates always run. *)
let shard_speedup ~config ~domains w =
  if Par.default_jobs () <= 1 then begin
    Printf.printf "\n  (host has %d core(s): %s shard speedup not meaningful, skipped)\n"
      (Par.default_jobs ()) w.name;
    None
  end
  else begin
    let pool = max 2 domains in
    let s1 = measure ~config ~shards:pool ~domains:1 w in
    let sp = measure ~config ~shards:pool ~domains:pool w in
    let speedup = s1.wall_s /. sp.wall_s in
    Printf.printf "\n  %s/%d nodes, %d shards: 1 domain %.3f s, %d domains %.3f s (%.2fx)\n"
      w.name config.Config.nprocs pool s1.wall_s pool sp.wall_s speedup;
    gate
      (Printf.sprintf "%s byte-identical at 1 domain vs pool" w.name)
      (s1.r.Parkernel.fingerprint = sp.r.Parkernel.fingerprint);
    if Par.default_jobs () >= 4 then
      gate (Printf.sprintf "%s shard pool at least breaks even on a >=4-core host" w.name)
        (speedup >= 1.0);
    Some speedup
  end

let run (scale : scale) =
  section "scale: sharded engine over hierarchical machines (emits BENCH_scale.json)";
  let shards = scale.shards in
  let domains = Par.get_jobs () in
  let node_counts = if scale.full then [ 64; 256; 1024 ] else [ 64; 256 ] in
  let largest = List.fold_left max 0 node_counts in
  let topology nodes = Config.hierarchical ~cluster_size:16 ~nodes () in
  let ops = if scale.full then 50 else 25 in
  Printf.printf
    "topologies: %s nodes (clusters of 16); --shards %d, -j %d domain(s)\n%!"
    (String.concat ", " (List.map string_of_int node_counts))
    shards domains;

  (* --- mesh workloads --- *)
  let mesh_workloads =
    [ mesh ~ops Mesh.Traffic; mesh ~ops Mesh.Storm; kernel ~ops Parkernel.Rpc_echo;
      mesh ~ops Mesh.Serve ]
  in
  subsection "mesh: determinism across shard and domain counts (2% injection)";
  let identical = determinism_ok ~label:"mesh" ~config:(topology 64) mesh_workloads in

  subsection "mesh: throughput vs topology";
  let rows =
    List.concat_map
      (fun nodes -> List.map (measure ~config:(topology nodes) ~shards ~domains) mesh_workloads)
      node_counts
  in
  print_rows rows;
  let speedup = shard_speedup ~config:(topology largest) ~domains (List.hd mesh_workloads) in
  gate
    (Printf.sprintf "largest topology >= 256 nodes (%d)" largest)
    (largest >= 256);

  (* --- kernel workloads --- *)
  subsection "hosted kernel: determinism across shard and domain counts";
  let kernel_identical =
    determinism_ok ~label:"kernel"
      ~config:(Config.hierarchical ~cluster_size:4 ~nodes:8 ())
      [ kernel ~ops:12 Parkernel.Jacobi; kernel ~ops:12 Parkernel.Rpc_echo ]
  in

  subsection "hosted kernel: throughput vs topology";
  let jacobi = kernel ~ops:32 Parkernel.Jacobi in
  let krows =
    List.map (fun nodes -> measure ~config:(topology nodes) ~shards ~domains jacobi) node_counts
  in
  (* The GB-span variant: a >= 2^27-word address space on the largest
     topology.  The chunked page tables keep resident memory proportional
     to the touched footprint (one 512-entry chunk per touched 512-page
     window, and a directory of at most 8,192 pointers), so this costs the
     same events as the dense run — the row records span_words and
     touched_pages as evidence. *)
  let gb_span = 1 lsl 27 in
  let gb_row =
    measure ~gb:true ~config:(topology largest) ~shards ~domains
      (kernel ~span_words:gb_span ~ops:32 Parkernel.Jacobi)
  in
  let krows = krows @ [ gb_row ] in
  print_rows krows;
  (let gr = gb_row.r in
   gate
     (Printf.sprintf "GB variant: %d-word span, %d touched pages, setup %.2f ms"
        gr.Parkernel.span_words gr.Parkernel.touched_pages gr.Parkernel.setup_ms)
     (gr.Parkernel.span_words >= gb_span
     && gr.Parkernel.touched_pages * 64 < gr.Parkernel.span_words
     && gr.Parkernel.setup_ms < 100.0));
  let kernel_speedup = shard_speedup ~config:(topology largest) ~domains jacobi in

  (* --- one program on both coherence models --- *)
  subsection "one program, two machines: hosted 16-node hierarchical vs 16-node Butterfly Plus";
  let hosted = Config.hierarchical ~cluster_size:16 ~nodes:16 () in
  let butterfly = Config.butterfly_plus () in
  (* fresh per machine: echo counts its round trips in its own array *)
  let programs () =
    let n = 16 and pw = butterfly.Config.page_words in
    [ Program.jacobi ~n ~pw ~width:64 ~iters:3; Program.echo ~n ~ops:32 ~rpcs:(Array.make n 0) ]
  in
  Printf.printf "%-8s %14s %14s\n" "program" "hosted" "butterfly";
  List.iter2
    (fun (h : Program.t) (b : Program.t) ->
      let hr = Parkernel.run ~seed ~config:hosted (Parkernel.Program h) in
      let br = Runner.run_program ~seed (Runner.Platinum (Runner.make ~config:butterfly ())) b in
      Printf.printf "%-8s %14s %14s\n" h.name (Time_ns.to_string hr.Parkernel.clock)
        (Time_ns.to_string br.Runner.timed);
      gate (h.name ^ " oracle holds on both machines") (hr.Parkernel.verified && br.Runner.verified))
    (programs ()) (programs ());

  let null_or_speedup = function
    | Some s -> Printf.sprintf "%.2f" s
    | None -> "null"
  in
  let determinism_json n ok =
    Printf.sprintf "{ \"workloads\": %d, \"cells_per_workload\": %d, \"identical\": %b }" n
      (List.length det_grid) ok
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
    \  \"kernel_determinism\": %s,\n\
    \  \"kernel_shard_speedup\": %s,\n\
    \  \"kernel_rows\": [\n%s\n  ]\n\
     }\n"
    (host_json ()) shards domains ops
    (determinism_json (List.length mesh_workloads) identical)
    (Par.default_jobs () > 1)
    (null_or_speedup speedup)
    (String.concat ",\n" (List.map row_json rows))
    (determinism_json 2 kernel_identical)
    (null_or_speedup kernel_speedup)
    (String.concat ",\n" (List.map row_json krows));
  close_out oc;
  Printf.printf "  wrote BENCH_scale.json\n%!";
  exit_on_missed_gates ~tag:"SCALE_FAIL" "a determinism, oracle or topology gate"
