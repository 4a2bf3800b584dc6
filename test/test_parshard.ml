(* The sharded event engine (Sim.Shard) and the hosted kernel on it
   (Platinum_scale.Parkernel): one complete Kernel.t per node, one
   Engine.t each, under the hosted window loop.

   The load-bearing contract: a sharded run is a pure function of the
   workload parameters — the shard count and domain count never change a
   single byte of the result.  We pin that by fingerprint across a
   shards x domains grid, for the mesh workloads (Platinum_scale.Mesh's
   traffic, storm and serve programs, and Parkernel's rpc_echo) and the
   kernel workloads, with the window self-checks armed, and again with
   the fault plane injecting at 2% (so the IPI-retry and
   request-retransmission recovery paths are inside the determinism
   envelope, not outside it).  Every cell must also pass its host oracle;
   for serve that is the rmw atomicity check at the servers. *)

module Shard = Platinum_sim.Shard
module Engine = Platinum_sim.Engine
module Config = Platinum_machine.Config
module Parkernel = Platinum_scale.Parkernel
module Mesh = Platinum_scale.Mesh
module Api = Platinum_kernel.Api

(* Grids kept modest: the full matrix runs under alcotest Quick. *)
let shard_counts = [ 1; 2; 8 ]
let domain_counts = [ 1; 2; 4 ]

let small = Config.hierarchical ~cluster_size:4 ~nodes:24 ()

(* --- Shard mechanics --- *)

let engines n = Array.init n (fun _ -> Engine.create ())

let test_shard_basics () =
  let es = engines 8 in
  let h = Shard.host ~check:true ~shards:4 ~lookahead:1_000 es in
  Alcotest.(check int) "nodes" 8 (Shard.hosted_nodes h);
  Alcotest.(check int) "shards" 4 (Shard.hosted_shards h);
  Alcotest.(check int) "node 0 on shard 0" 0 (Shard.hosted_shard_of_node h 0);
  Alcotest.(check int) "node 7 on shard 3" 3 (Shard.hosted_shard_of_node h 7);
  let log = ref [] in
  let note k node () = log := (k, Engine.now es.(node)) :: !log in
  Engine.schedule_after es.(0) ~delay:10 (note `A 0);
  Engine.schedule_after es.(7) ~delay:5 (note `B 7);
  Engine.post es.(0) ~dst:7 ~delay:1_000 (note `C 7);
  Shard.run_hosted h;
  Alcotest.(check int) "three events" 3 (Shard.hosted_events h);
  Alcotest.(check (list (pair bool int)))
    "delivery times in order"
    [ (true, 5); (true, 10); (false, 1_000) ]
    (List.rev_map (fun (k, t) -> (k <> `C, t)) !log
    |> List.sort (fun (_, a) (_, b) -> compare a b))

let test_shard_clamps_to_nodes () =
  let h = Shard.host ~shards:16 ~lookahead:100 (engines 3) in
  Alcotest.(check int) "shards clamped to node count" 3 (Shard.hosted_shards h)

let test_post_under_lookahead_rejected () =
  let es = engines 4 in
  let h = Shard.host ~shards:2 ~lookahead:5_000 es in
  (* Enforced even for a same-shard pair (nodes 0 and 1 both live on
     shard 0), so legality never depends on the shard count. *)
  Alcotest.(check int) "same shard" (Shard.hosted_shard_of_node h 0)
    (Shard.hosted_shard_of_node h 1);
  Alcotest.check_raises "cross-node post under the lookahead"
    (Invalid_argument "Shard.host: cross-node delay 4999 below lookahead 5000")
    (fun () -> Engine.post es.(0) ~dst:1 ~delay:4_999 ignore);
  (* src = dst is node-local scheduling: no lookahead constraint. *)
  Engine.post es.(0) ~dst:0 ~delay:1 ignore;
  Shard.run_hosted h;
  Alcotest.(check int) "local post delivered" 1 (Shard.hosted_events h)

let test_hosted_argument_checks () =
  let es = engines 4 in
  let h = Shard.host ~shards:2 ~lookahead:100 es in
  Alcotest.check_raises "post to a node past the group"
    (Invalid_argument "Shard.host: post to unknown node 4")
    (fun () -> Engine.post es.(0) ~dst:4 ~delay:100 ignore);
  Alcotest.check_raises "post to a negative node"
    (Invalid_argument "Shard.host: post to unknown node -1")
    (fun () -> Engine.post es.(0) ~dst:(-1) ~delay:100 ignore);
  Alcotest.check_raises "an engine hosted twice"
    (Invalid_argument "Shard.host: an engine already has a router")
    (fun () -> ignore (Shard.host ~shards:1 ~lookahead:100 [| Engine.create (); es.(2) |]));
  Engine.post es.(0) ~dst:3 ~delay:100 ignore;
  Shard.run_hosted h;
  Alcotest.(check int) "the legal post delivered" 1 (Shard.hosted_events h);
  Alcotest.check_raises "a group runs once"
    (Invalid_argument "Shard.run_hosted: already ran")
    (fun () -> Shard.run_hosted h)

(* --- the hosted window loop's wake index ---

   A window runs only the engines with an event inside it.  Each case
   below pins a count or a time that a stale or missing wake-index entry
   would change, over shards {1,2,8} x domains {1,2}, with the window
   self-check armed. *)

let hosted_cells f =
  List.iter (fun shards -> List.iter (fun domains -> f ~shards ~domains) [ 1; 2 ]) shard_counts

let cell name ~shards ~domains = Printf.sprintf "%s s=%d d=%d" name shards domains

let check_clocks_level name engines h =
  Array.iteri
    (fun node e ->
      Alcotest.(check int)
        (Printf.sprintf "%s: node %d clock" name node)
        (Shard.hosted_clock h) (Engine.now e))
    engines

let test_hosted_idle_engines_skipped () =
  hosted_cells (fun ~shards ~domains ->
      let name = cell "ping-pong" ~shards ~domains in
      let lookahead = 100 in
      let engines = Array.init 256 (fun _ -> Engine.create ()) in
      let h = Shard.host ~check:true ~shards ~lookahead engines in
      let hops = ref 0 in
      let rec ping src dst () =
        if !hops < 50 then begin
          incr hops;
          Engine.post engines.(src) ~dst ~delay:lookahead (ping dst src)
        end
      in
      Engine.schedule_at engines.(0) ~at:0 (ping 0 255);
      Shard.run_hosted ~domains h;
      Alcotest.(check int) (name ^ ": events") 51 (Shard.hosted_events h);
      (* one window per hop: deliveries at 0, 100, ..., 5000 *)
      Alcotest.(check int) (name ^ ": windows") 51 (Shard.hosted_windows h);
      Alcotest.(check int) (name ^ ": final clock") 5_099 (Shard.hosted_clock h);
      check_clocks_level name engines h)

let test_hosted_mail_rekeys_destination () =
  hosted_cells (fun ~shards ~domains ->
      let name = cell "early mail" ~shards ~domains in
      let lookahead = 100 in
      let engines = Array.init 16 (fun _ -> Engine.create ()) in
      let h = Shard.host ~check:true ~shards ~lookahead engines in
      let ran_at = ref (-1) and replied_at = ref (-1) in
      (* node 9's own queue holds only a far-future event *)
      Engine.schedule_at engines.(9) ~at:1_000_000 ignore;
      Engine.schedule_at engines.(0) ~at:0 (fun () ->
          Engine.post engines.(0) ~dst:9 ~delay:lookahead (fun () ->
              ran_at := Engine.now engines.(9);
              Engine.post engines.(9) ~dst:0 ~delay:lookahead (fun () ->
                  replied_at := Engine.now engines.(0))));
      Shard.run_hosted ~domains h;
      Alcotest.(check int) (name ^ ": mail runs at its own time") 100 !ran_at;
      Alcotest.(check int) (name ^ ": reply follows it") 200 !replied_at;
      (* [0,100) [100,200) [200,300) then the far event's window *)
      Alcotest.(check int) (name ^ ": windows") 4 (Shard.hosted_windows h);
      check_clocks_level name engines h)

let test_hosted_daemon_does_not_keep_alive () =
  hosted_cells (fun ~shards ~domains ->
      let name = cell "daemon" ~shards ~domains in
      let lookahead = 100 in
      let engines = Array.init 16 (fun _ -> Engine.create ()) in
      let h = Shard.host ~check:true ~shards ~lookahead engines in
      let ticks = ref 0 and hops = ref 0 in
      (* bounded, so a run the daemon wrongly keeps alive still ends *)
      Engine.every engines.(15) ~daemon:true ~period:30 (fun () ->
          incr ticks;
          !ticks < 1_000);
      let rec ping src dst () =
        if !hops < 10 then begin
          incr hops;
          Engine.post engines.(src) ~dst ~delay:lookahead (ping dst src)
        end
      in
      Engine.schedule_at engines.(0) ~at:0 (ping 0 9);
      Shard.run_hosted ~domains h;
      (* normal work at 0, 100, ..., 1000: eleven windows [100k, 100k+100);
         the daemon fires at every positive multiple of 30 below 1100 *)
      Alcotest.(check int) (name ^ ": windows") 11 (Shard.hosted_windows h);
      Alcotest.(check int) (name ^ ": daemon ticks") 36 !ticks;
      Alcotest.(check int) (name ^ ": final clock") 1_099 (Shard.hosted_clock h);
      check_clocks_level name engines h)

(* --- byte-identical fingerprints across the grid --- *)

(* The mesh cells: the three Mesh programs, plus Parkernel's echo. *)
let mesh_workloads =
  let mesh w =
    ( Mesh.workload_name w,
      fun ~check ~shards ~domains ~inject_rate ~ops ->
        (Mesh.run ~check ~shards ~domains ~inject_rate ~seed:7L ~ops_per_node:ops ~config:small
           w)
          .Mesh.run )
  in
  [
    mesh Mesh.Traffic;
    mesh Mesh.Storm;
    ( "rpc_echo",
      fun ~check ~shards ~domains ~inject_rate ~ops ->
        Parkernel.run ~check ~shards ~domains ~inject_rate ~seed:7L ~ops_per_node:ops
          ~config:small Parkernel.Rpc_echo );
    mesh Mesh.Serve;
  ]

let fingerprint_grid ?(inject_rate = 0.0) ~check run =
  List.concat_map
    (fun shards ->
      List.map
        (fun domains ->
          let r = run ~check ~shards ~domains ~inject_rate ~ops:30 in
          let name = cell r.Parkernel.workload ~shards ~domains in
          Alcotest.(check bool)
            (name ^ " made progress")
            true
            (r.Parkernel.events > 0 && r.Parkernel.clock > 0);
          Alcotest.(check bool) (name ^ " verified against the oracle") true r.Parkernel.verified;
          Printf.sprintf "%s events=%d windows=%d clock=%d fp=%s" r.Parkernel.workload
            r.Parkernel.events r.Parkernel.windows r.Parkernel.clock r.Parkernel.fingerprint)
        domain_counts)
    shard_counts

(* Every grid's fingerprint is pinned, seed 7: the mesh cells run on
   [small] with 30 ops, the kernel cells on [kernel_config] with iters 4,
   12 ops and width 64.  A schedule change anywhere under the hosted
   kernel moves one of these. *)
let pinned_clean =
  [
    ("mesh traffic", "b913c4c097b2c0f6");
    ("mesh storm", "58bda83f955b9820");
    ("mesh serve", "3368716ff080a183");
    ("mesh rpc_echo", "3d315d45c2ca9ac4");
    ("kernel jacobi", "8abcb6622a66b61a");
    ("kernel rpc_echo", "b82b6a65d41eb62c");
  ]

let pinned_injected =
  [
    ("mesh traffic", "ce98010764f61a3f");
    ("mesh storm", "d607d62716d85bc3");
    ("mesh serve", "69abe61ee5fa9587");
    ("mesh rpc_echo", "7d1d91faf50b3305");
    ("kernel jacobi", "2764f1e057f19855");
    ("kernel rpc_echo", "d0a12bcaeefbb2bc");
  ]

let check_grid_identical ~expected name lines =
  match lines with
  | [] -> Alcotest.fail "empty grid"
  | baseline :: _ ->
    Alcotest.(check (list string))
      name
      (List.map (fun _ -> baseline) lines)
      lines;
    Alcotest.(check string)
      (name ^ ": pinned fingerprint")
      ("fp=" ^ expected)
      (List.nth (String.split_on_char ' ' baseline) 4)

let test_workload_deterministic (name, run) () =
  (* check:true = the PLATINUM_CHECK window monitors are armed in every
     cell; a violation raises and fails the test. *)
  fingerprint_grid ~check:true run
  |> check_grid_identical ~expected:(List.assoc ("mesh " ^ name) pinned_clean)
       "fingerprint identical across shards x domains"

let test_workload_deterministic_injected (name, run) () =
  fingerprint_grid ~check:true ~inject_rate:0.02 run
  |> check_grid_identical ~expected:(List.assoc ("mesh " ^ name) pinned_injected)
       "fingerprint identical under 2% fault injection"

let mesh_run name = List.assoc name mesh_workloads

let test_injection_exercises_recovery () =
  (* At 2% over enough ops the adversary must actually fire — otherwise
     the injected grid above degenerates to the clean one. *)
  let run name = mesh_run name ~check:false ~shards:1 ~domains:1 ~inject_rate:0.02 ~ops:60 in
  let storm = run "storm" in
  Alcotest.(check bool) "storm faults injected" true (storm.Parkernel.faults > 0);
  Alcotest.(check bool) "shootdown retries taken" true (storm.Parkernel.retries > 0);
  let echo = run "rpc_echo" in
  Alcotest.(check bool) "echo retransmissions taken" true (echo.Parkernel.retries > 0);
  let serve = run "serve" in
  Alcotest.(check bool) "serve retransmissions taken" true (serve.Parkernel.retries > 0);
  Alcotest.(check bool) "serve rmws atomic under injection" true serve.Parkernel.verified

let test_clean_vs_injected_differ () =
  let fp inject_rate =
    (mesh_run "storm" ~check:false ~shards:1 ~domains:1 ~inject_rate ~ops:30)
      .Parkernel.fingerprint
  in
  Alcotest.(check bool) "2% injection perturbs the run" true (fp 0.0 <> fp 0.02)

(* Node 0 reads one word of an intra-cluster row (node 1's) and then of a
   cross-cluster row (node 4's), nothing else running.  Each first read
   fetches a page copy: the request pays the cross surcharge on one word
   and the copy on every word of the page. *)
let first_read_costs config =
  let costs = ref [] in
  let program ~node ~row ~rng:_ =
    if node = 0 then
      costs :=
        List.map
          (fun home ->
            let t0 = Api.now () in
            ignore (Api.read (row home));
            Api.now () - t0)
          [ 1; 4 ]
  in
  ignore
    (Parkernel.run ~check:true ~config
       (Parkernel.Program
          { name = "program"; image = []; body = program; verify = (fun _ -> true) }));
  match !costs with [ intra; cross ] -> (intra, cross) | _ -> Alcotest.fail "node 0 did not run"

let test_hierarchical_topology_exact () =
  let hier = Config.hierarchical ~cluster_size:4 ~nodes:8 () in
  let intra, cross = first_read_costs hier in
  Alcotest.(check int) "cross - intra = (page_words + 1) x t_cross_read_extra"
    ((hier.Config.page_words + 1) * hier.Config.t_cross_read_extra)
    (cross - intra);
  let flat_intra, flat_cross = first_read_costs (Config.hierarchical ~cluster_size:8 ~nodes:8 ()) in
  Alcotest.(check int) "flat machine: both reads cost the same" flat_intra flat_cross;
  Alcotest.(check int) "flat machine: the intra-cluster read is unchanged" intra flat_intra

(* A zero-length block moves no data: on a hosted kernel it completes at
   no cost, as it does on Platsys, instead of failing the thread. *)
let test_zero_length_block () =
  let out = ref None in
  let program ~node ~row ~rng:_ =
    if node = 0 then begin
      let t0 = Api.now () in
      let got = Api.block_read (row 1) 0 in
      Api.block_write (row 1) [||];
      Api.block_read_into (row 0) [| 5 |] ~off:1 ~len:0;
      out := Some (Array.length got, Api.now () - t0)
    end
  in
  let r =
    Parkernel.run ~check:true ~config:(Config.hierarchical ~cluster_size:4 ~nodes:8 ())
      (Parkernel.Program
         { name = "program"; image = []; body = program; verify = (fun _ -> true) })
  in
  Alcotest.(check bool) "run verified" true r.Parkernel.verified;
  Alcotest.(check (option (pair int int))) "empty result, zero elapsed" (Some (0, 0)) !out

(* [width] and [iters] shape jacobi only: a program on pages under the
   default 128-word width starts without them, while jacobi there still
   rejects the default width. *)
let test_program_needs_no_width () =
  let config = Config.hierarchical ~cluster_size:4 ~page_words:64 ~nodes:8 () in
  let seen = ref 0 in
  let program ~node ~row ~rng:_ =
    if node = 0 then begin
      Api.write (row 1) 9;
      seen := Api.read (row 1)
    end
  in
  let r =
    Parkernel.run ~check:true ~iters:0 ~config
      (Parkernel.Program
         { name = "program"; image = []; body = program; verify = (fun _ -> true) })
  in
  Alcotest.(check bool) "run verified" true r.Parkernel.verified;
  Alcotest.(check int) "the program ran" 9 !seen;
  Alcotest.check_raises "jacobi still checks its width"
    (Invalid_argument "Parkernel.run: width must be in [1, page_words]") (fun () ->
      ignore (Parkernel.run ~config Parkernel.Jacobi))

(* --- the hosted kernel: full per-node kernel simulations under Shard ---

   Same contract, harder cargo: Parkernel runs one complete Kernel.t per
   node with the coherence protocol decomposed into mailbox messages
   (DESIGN.md §4j).  The fingerprint covers every node's counters, engine
   history, module statistics, fault plane and home-page contents — pinned
   across the same shards x domains grid, clean and at 2% injection, with
   the window monitors armed (shard-local sweeps: each node's state is
   touched only by its own engine's events). *)

let kernel_config = Config.hierarchical ~cluster_size:4 ~nodes:8 ()

let kernel_grid ?(inject_rate = 0.0) workload =
  List.concat_map
    (fun shards ->
      List.map
        (fun domains ->
          let r =
            Parkernel.run ~check:true ~shards ~domains ~inject_rate ~seed:7L
              ~iters:4 ~ops_per_node:12 ~width:64 ~config:kernel_config workload
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s s=%d d=%d verified against the oracle"
               r.Parkernel.workload shards domains)
            true r.Parkernel.verified;
          Printf.sprintf "%s events=%d windows=%d clock=%d fp=%s"
            r.Parkernel.workload r.Parkernel.events r.Parkernel.windows
            r.Parkernel.clock r.Parkernel.fingerprint)
        domain_counts)
    shard_counts

let test_kernel_deterministic workload () =
  kernel_grid workload
  |> check_grid_identical
       ~expected:(List.assoc ("kernel " ^ Parkernel.workload_name workload) pinned_clean)
       "kernel fingerprint identical across shards x domains"

let test_kernel_deterministic_injected workload () =
  kernel_grid ~inject_rate:0.02 workload
  |> check_grid_identical
       ~expected:(List.assoc ("kernel " ^ Parkernel.workload_name workload) pinned_injected)
       "kernel fingerprint identical under 2% fault injection"

let test_kernel_injection_bites () =
  (* the injected grid must not degenerate to the clean one *)
  let r =
    Parkernel.run ~check:true ~inject_rate:0.02 ~seed:7L ~iters:4 ~ops_per_node:12
      ~width:64 ~config:kernel_config Parkernel.Jacobi
  in
  Alcotest.(check bool) "faults injected" true (r.Parkernel.faults > 0);
  let clean =
    Parkernel.run ~check:true ~seed:7L ~iters:4 ~ops_per_node:12 ~width:64
      ~config:kernel_config Parkernel.Jacobi
  in
  Alcotest.(check bool) "injection perturbs the kernel run" true
    (r.Parkernel.fingerprint <> clean.Parkernel.fingerprint)

let test_kernel_protocol_exercised () =
  let j =
    Parkernel.run ~check:true ~seed:7L ~iters:4 ~width:64 ~config:kernel_config
      Parkernel.Jacobi
  in
  Alcotest.(check bool) "jacobi replicates pages" true (j.Parkernel.replications > 0);
  Alcotest.(check bool) "jacobi shoots down replicas" true (j.Parkernel.shootdowns > 0);
  Alcotest.(check bool) "shootdowns send IPIs" true
    (j.Parkernel.ipis >= j.Parkernel.shootdowns);
  let e =
    Parkernel.run ~check:true ~seed:7L ~ops_per_node:12 ~config:kernel_config
      Parkernel.Rpc_echo
  in
  Alcotest.(check int) "echo completes every round trip" (4 * 12) e.Parkernel.rpcs

let test_kernel_gb_span_sparse () =
  (* a 2^27-word address span must cost only the touched footprint and
     set up fast — the chunked-table contract *)
  let t0 = Sys.time () in
  let r =
    Parkernel.run ~check:true ~shards:4 ~domains:2 ~iters:2 ~width:64
      ~span_words:(1 lsl 27) ~config:kernel_config Parkernel.Jacobi
  in
  let setup_ms = (Sys.time () -. t0) *. 1000. in
  Alcotest.(check bool) "span covers 2^27 words" true (r.Parkernel.span_words >= 1 lsl 27);
  Alcotest.(check bool) "verified at GB span" true r.Parkernel.verified;
  Alcotest.(check bool)
    (Printf.sprintf "touched pages stay proportional to rows (%d)" r.Parkernel.touched_pages)
    true
    (r.Parkernel.touched_pages <= 8 + 4);
  Alcotest.(check bool) (Printf.sprintf "setup under 100ms (%.1f)" setup_ms) true (setup_ms < 100.)

(* --- Homemem: readers of one page version share one snapshot --- *)

(* Node 0 homes page 0; nodes 1-3 drive it through the protocol directly.
   Three readers of the loaded page cost one snapshot; node 1's write moves
   the version, so the next readers cost one more; a [load] after those
   grants drops the cached snapshot, so the next reader sees the loaded
   word; a write at the home then shoots every replica down. *)
let test_one_snapshot_per_version () =
  let module Homemem = Platinum_scale.Homemem in
  let module Memsys = Platinum_kernel.Memsys in
  let module Memtxn = Platinum_core.Memtxn in
  let cfg = Config.hierarchical ~cluster_size:4 ~nodes:4 () in
  let pw = cfg.Config.page_words in
  let es = engines 4 in
  let mem =
    Homemem.create cfg
      (Platinum_machine.Machine.modules (Platinum_machine.Machine.create cfg))
      ~engines:es ~injects:(Array.make 4 None) ~home_of:(fun _ -> 0)
  in
  Homemem.load mem ~addr:0 [| 5; 7 |];
  let remote =
    Array.init 4 (fun s ->
        match (Homemem.memsys mem s ~arena_base:pw ~arena_words:pw).Memsys.remote with
        | Some r -> r.Memsys.try_remote
        | None -> Alcotest.fail "hosted memory has no remote hook")
  in
  let seen = Array.make 4 [] in
  let submit s txn =
    ignore
      (remote.(s) ~now:0 ~proc:s ~aspace:0 txn ~complete:(fun ~delay:_ v ->
           match txn with Memtxn.Read _ -> seen.(s) <- v :: seen.(s) | _ -> ()))
  in
  let read s = submit s (Memtxn.Read { vaddr = 1 }) in
  let snapshots () = (Homemem.counters mem 0).Homemem.snapshots in
  (* a page copy takes about 5 ms here: one step per 50 ms *)
  let at step s f = Engine.schedule_after es.(s) ~delay:(step * 50_000_000) f in
  let marks = ref [] in
  let mark () = marks := snapshots () :: !marks in
  let h = Shard.host ~check:true ~shards:1 ~lookahead:(Config.lookahead_ns cfg) es in
  List.iter (fun s -> at 0 s (fun () -> read s)) [ 1; 2; 3 ];
  at 1 1 (fun () -> submit 1 (Memtxn.Write { vaddr = 1; value = 9 }));
  at 2 0 mark;
  List.iter (fun s -> at 3 s (fun () -> read s)) [ 2; 3 ];
  at 4 0 (fun () ->
      mark ();
      Homemem.load mem ~addr:1 [| 11 |]);
  at 5 1 (fun () -> read 1);
  at 6 0 (fun () -> submit 0 (Memtxn.Write { vaddr = 2; value = 1 }));
  Shard.run_hosted h;
  Alcotest.(check (list int)) "snapshots: 3 readers, then a write, then 2 readers" [ 2; 1 ]
    !marks;
  Alcotest.(check int) "load dropped the snapshot: one more for the last reader" 3
    (snapshots ());
  Alcotest.(check (array (list int))) "words read (newest first)"
    [| []; [ 11; 7 ]; [ 9; 7 ]; [ 9; 7 ] |]
    seen;
  Alcotest.(check (list int)) "replications installed" [ 0; 2; 2; 2 ]
    (List.init 4 (fun s -> (Homemem.counters mem s).Homemem.replications));
  Alcotest.(check bool) "at rest" true (Homemem.at_rest_ok mem)

let suite =
  let det (name, run) =
    ( Printf.sprintf "golden: %s fingerprint across shards x domains" name,
      `Quick,
      test_workload_deterministic (name, run) )
  in
  let det_inj (name, run) =
    ( Printf.sprintf "golden: %s fingerprint under 2%% injection" name,
      `Quick,
      test_workload_deterministic_injected (name, run) )
  in
  [
    ("shard: basics", `Quick, test_shard_basics);
    ("shard: shard count clamps to nodes", `Quick, test_shard_clamps_to_nodes);
    ("shard: lookahead enforcement", `Quick, test_post_under_lookahead_rejected);
    ("hosted: argument checks", `Quick, test_hosted_argument_checks);
    ("hosted: idle engines skipped, clocks level at the end", `Quick,
      test_hosted_idle_engines_skipped);
    ("hosted: early mail re-keys its destination", `Quick,
      test_hosted_mail_rekeys_destination);
    ("hosted: a daemon fires but does not keep the run alive", `Quick,
      test_hosted_daemon_does_not_keep_alive);
    ("hosted: readers of one page version share one snapshot", `Quick,
      test_one_snapshot_per_version);
  ]
  @ List.map det mesh_workloads
  @ List.map det_inj mesh_workloads
  @ [
      ("scale: injection exercises recovery", `Quick, test_injection_exercises_recovery);
      ("scale: injection perturbs the run", `Quick, test_clean_vs_injected_differ);
      ("scale: first cross-cluster read costs (page_words + 1) x extra", `Quick,
        test_hierarchical_topology_exact);
      ("kernel: a zero-length block completes at no cost", `Quick, test_zero_length_block);
      ("kernel: a program needs no width or iters", `Quick, test_program_needs_no_width);
    ]
  @ List.map
      (fun w ->
        ( Printf.sprintf "golden: kernel %s fingerprint across shards x domains"
            (Parkernel.workload_name w),
          `Quick,
          test_kernel_deterministic w ))
      Parkernel.all_workloads
  @ List.map
      (fun w ->
        ( Printf.sprintf "golden: kernel %s fingerprint under 2%% injection"
            (Parkernel.workload_name w),
          `Quick,
          test_kernel_deterministic_injected w ))
      Parkernel.all_workloads
  @ [
      ("kernel: injection perturbs the hosted run", `Quick, test_kernel_injection_bites);
      ("kernel: coherence protocol exercised", `Quick, test_kernel_protocol_exercised);
      ("kernel: GB-span address space stays sparse", `Quick, test_kernel_gb_span_sparse);
    ]
