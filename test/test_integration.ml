(* Cross-layer integration tests: whole-stack scenarios exercising the
   kernel, VM, coherent memory, and machine model together. *)

module Config = Platinum_machine.Config
module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync
module Runner = Platinum_runner.Runner
module Report = Platinum_stats.Report
module Trace = Platinum_stats.Trace
module Probe = Platinum_core.Probe
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Outcome = Platinum_workload.Outcome
module Gauss = Platinum_workload.Gauss
module Check = Platinum_core.Check
module Program = Platinum_kernel.Program

(* Counters and per-page stats must agree after a nontrivial run. *)
let test_counters_agree_with_page_stats () =
  let out, main = Gauss.make (Gauss.params ~n:48 ~nprocs:4 ()) in
  let r = Runner.time main in
  Alcotest.(check bool) "ok" true out.Outcome.ok;
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  let sum f =
    List.fold_left (fun acc row -> acc + f row) 0 r.Runner.report.Report.pages
  in
  Alcotest.(check int) "read faults agree" c.Counters.read_faults
    (sum (fun row -> row.Report.read_faults));
  Alcotest.(check int) "write faults agree" c.Counters.write_faults
    (sum (fun row -> row.Report.write_faults));
  Alcotest.(check int) "replications agree" c.Counters.replications
    (sum (fun row -> row.Report.replications));
  Alcotest.(check int) "migrations agree" c.Counters.migrations
    (sum (fun row -> row.Report.migrations))

(* The trace sees exactly as many replication events as the counters. *)
let test_trace_agrees_with_counters () =
  let out, main = Gauss.make (Gauss.params ~n:48 ~nprocs:4 ~verify:false ()) in
  let setup = Runner.make () in
  let tr = Trace.create () in
  Trace.attach tr setup.Runner.coherent;
  let r = Runner.run setup ~main in
  Alcotest.(check bool) "ok" true out.Outcome.ok;
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Alcotest.(check int) "trace dropped nothing" 0 (Trace.dropped tr);
  Alcotest.(check int) "replication events"
    c.Counters.replications
    (Trace.count tr (function Probe.Replicated _ -> true | _ -> false));
  Alcotest.(check int) "freeze events" c.Counters.freezes
    (Trace.count tr (function Probe.Frozen _ -> true | _ -> false))

(* Physical memory exhaustion mid-workload degrades to remote mappings
   without corrupting results. *)
let test_oom_under_load () =
  let config = Config.butterfly_plus ~nprocs:8 () in
  (* 8 frames per module: far too few for full replication of 12 pages by
     8 readers. *)
  let sums = Array.make 8 0 in
  let r =
    Runner.time ~config ~frames_per_module:8 (fun () ->
        let words = 12 * Api.page_words () in
        let data = Api.alloc_pages 12 in
        Api.block_write data (Array.init words (fun i -> i land 0xFF));
        let zone_sync = Api.new_zone "sync" ~pages:1 in
        let barrier = Sync.Barrier.make ~zone:zone_sync ~parties:8 () in
        let worker me =
          Sync.Barrier.wait barrier;
          let a = Api.block_read (data + (me * 16)) 1024 in
          sums.(me) <- Array.fold_left ( + ) 0 a
        in
        Api.spawn_join_all ~procs:(List.init 8 (fun i -> i))
          (List.init 8 (fun me _ -> worker me)))
  in
  (* Results correct despite the memory squeeze... *)
  for me = 0 to 7 do
    let expect = ref 0 in
    for i = 0 to 1023 do
      expect := !expect + ((me * 16) + i) land 0xFF
    done;
    Alcotest.(check int) (Printf.sprintf "worker %d sum" me) !expect sums.(me)
  done;
  (* ...and the protocol really did fall back to remote mappings. *)
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Alcotest.(check bool) "remote fallbacks happened" true (c.Counters.remote_maps > 0)

(* Thread migration carries locality: after migrating, a thread's writes
   pull its pages to the new node. *)
let test_migration_moves_working_set () =
  let page_home = ref (-1) in
  let r =
    Runner.time (fun () ->
        let a = Api.alloc_pages 1 in
        let t =
          Api.spawn ~proc:0 (fun () ->
              Api.write a 1;
              Api.migrate 5;
              (* t1 must have expired for the write to migrate the page *)
              Api.compute 50_000_000;
              Api.write a 2)
        in
        Api.join t)
  in
  Coherent.iter_cpages
    (fun p ->
      if p.Platinum_core.Cpage.label = "heap[0]" then
        page_home :=
          (match Platinum_core.Cpage.copies p with
          | [ f ] -> Platinum_phys.Frame.mem_module f
          | _ -> -2))
    r.Runner.setup.Runner.coherent;
  Alcotest.(check int) "page followed the thread to node 5" 5 !page_home

(* Two PLATINUM instances in one process don't interfere (no hidden
   global state). *)
let test_instances_are_independent () =
  let setup1 = Runner.make ~frames_per_module:32 () in
  let setup2 = Runner.make ~frames_per_module:32 () in
  let mk_main tag final = fun () ->
    let a = Api.alloc 4 in
    Api.write a tag;
    final := Api.read a
  in
  let f1 = ref 0 and f2 = ref 0 in
  ignore (Runner.run setup1 ~main:(mk_main 111 f1));
  ignore (Runner.run setup2 ~main:(mk_main 222 f2));
  Alcotest.(check int) "instance 1" 111 !f1;
  Alcotest.(check int) "instance 2" 222 !f2

(* A pipeline: producer on node 0 sends work through ports to a chain of
   workers that each transform data held in coherent memory. *)
let test_port_pipeline () =
  let stages = 4 in
  let final = ref [||] in
  Runner.time (fun () ->
      let ports = Array.init (stages + 1) (fun _ -> Api.new_port ()) in
      let stage i =
        let v = Api.recv ports.(i) in
        let out = Array.map (fun x -> x + 1) v in
        Api.send ports.(i + 1) out
      in
      let tids = List.init stages (fun i -> Api.spawn ~proc:(i + 1) (fun () -> stage i)) in
      Api.send ports.(0) [| 10; 20; 30 |];
      List.iter Api.join tids;
      final := Api.recv ports.(stages))
  |> ignore;
  Alcotest.(check (array int)) "each stage incremented" [| 14; 24; 34 |] !final

(* Deterministic replay with a different policy still matches itself. *)
let test_policy_runs_deterministic () =
  List.iter
    (fun name ->
      let config = Config.butterfly_plus ~nprocs:4 () in
      let policy () =
        match Policy.of_string ~t1:config.Config.t1_freeze_window name with
        | Ok p -> p
        | Error e -> failwith e
      in
      let go () =
        let out, main = Gauss.make (Gauss.params ~n:32 ~nprocs:4 ~verify:false ()) in
        let r = Runner.time ~config ~policy:(policy ()) main in
        (out.Outcome.work_ns, r.Runner.elapsed)
      in
      Alcotest.(check bool) (name ^ " deterministic") true (go () = go ()))
    [ "platinum"; "always-replicate"; "uniform-system" ]

(* The kernel scheduler under oversubscription: 3x more threads than
   processors, all doing memory work, all complete correctly. *)
let test_oversubscription () =
  let nthreads = 12 in
  let results = Array.make nthreads 0 in
  Runner.time ~config:(Config.butterfly_plus ~nprocs:4 ()) (fun () ->
      let a = Api.alloc_pages 1 in
      Api.block_write a (Array.init 64 (fun i -> i));
      let worker me =
        let data = Api.block_read a 64 in
        Api.compute 5_000_000;
        results.(me) <- Array.fold_left ( + ) 0 data + me
      in
      Api.spawn_join_all (List.init nthreads (fun me _ -> worker me)))
  |> ignore;
  Array.iteri
    (fun me v -> Alcotest.(check int) (Printf.sprintf "thread %d" me) (2016 + me) v)
    results

(* The DOT rendering carries every explored edge. *)
let test_mc_dot () =
  let module Mc = Platinum_check.Mc in
  let edges = (Mc.explore ~policy:"platinum" ~nprocs:2 ~npages:1 ~depth:4 ()).Mc.edges in
  let dot = Mc.to_dot edges in
  Alcotest.(check bool) "digraph" true (String.starts_with ~prefix:"digraph" dot);
  Alcotest.(check bool) "edges explored" true (edges <> []);
  let label (state, frozen) =
    Platinum_core.Cpage.state_to_string state ^ if frozen then "/frozen" else ""
  in
  List.iter
    (fun (e : Mc.edge) ->
      let frag =
        Printf.sprintf "\"%s\" -> \"%s\" [label=\"%s\"]" (label e.from) (label e.to_) e.trigger
      in
      let contains sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("edge in dot: " ^ frag) true (contains frag dot))
    edges

(* Lock-protected counter under randomized pacing: mutual exclusion must
   hold for every schedule the jitter produces. *)
let prop_lock_counter =
  QCheck.Test.make ~name:"spinlock counter is exact under random pacing" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let total = ref 0 in
      let r =
        Runner.time ~frames_per_module:64 (fun () ->
            let rng = Platinum_sim.Rng.create (Int64.of_int seed) in
            let lock = Sync.Spinlock.make () in
            let counter = Api.alloc 1 in
            let jitters =
              Array.init 4 (fun _ -> Array.init 6 (fun _ -> Platinum_sim.Rng.int rng 300_000))
            in
            let worker me =
              Array.iter
                (fun j ->
                  Api.compute j;
                  Sync.Spinlock.with_lock lock (fun () ->
                      let v = Api.read counter in
                      Api.compute 20_000;
                      Api.write counter (v + 1)))
                jitters.(me)
            in
            Api.spawn_join_all ~procs:[ 0; 1; 2; 3 ] (List.init 4 (fun me _ -> worker me));
            total := Api.read counter)
      in
      ignore r;
      !total = 24)

(* One program, every backend: the hosted kernel's own jacobi and
   rpc_echo pass their oracles on the paper's machine under every policy,
   with the monitor armed, and on the UMA machine (Runner.run_program). *)
let hosted_programs ~n ~pw =
  [ Program.jacobi ~n ~pw ~width:64 ~iters:3; Program.echo ~n ~ops:8 ~rpcs:(Array.make n 0) ]

let test_hosted_programs () =
  let config = Config.butterfly_plus () in
  let n = config.Config.nprocs and pw = config.Config.page_words in
  let verified what (r : Runner.program_result) =
    Alcotest.(check bool) (what ^ " oracle") true r.Runner.verified
  in
  List.iter
    (fun name ->
      List.iter
        (fun (p : Program.t) ->
          let t1 = config.Config.t1_freeze_window in
          let s = Runner.make ~config ~policy:(Result.get_ok (Policy.of_string ~t1 name)) () in
          Coherent.set_monitor s.Runner.coherent (Some (Check.create_monitor ()));
          verified (name ^ " " ^ p.name) (Runner.run_program ~seed:42L (Runner.Platinum s) p))
        (hosted_programs ~n ~pw))
    Policy.default_names;
  List.iter
    (fun (p : Program.t) ->
      verified ("uma " ^ p.name)
        (Runner.run_program ~seed:42L (Runner.Uma { nprocs = n; page_words = pw }) p))
    (hosted_programs ~n ~pw)

let suite =
  [
    ("counters agree with per-page stats", `Quick, test_counters_agree_with_page_stats);
    ("program: hosted programs on the Butterfly Plus and UMA", `Quick, test_hosted_programs);
    ("trace agrees with counters", `Quick, test_trace_agrees_with_counters);
    ("graceful degradation under OOM", `Quick, test_oom_under_load);
    ("migration moves the working set", `Quick, test_migration_moves_working_set);
    ("instances are independent", `Quick, test_instances_are_independent);
    ("port pipeline across nodes", `Quick, test_port_pipeline);
    ("all policies deterministic", `Quick, test_policy_runs_deterministic);
    ("scheduler oversubscription", `Quick, test_oversubscription);
    ("mc: DOT rendering of explored edges", `Quick, test_mc_dot);
    QCheck_alcotest.to_alcotest prop_lock_counter;
  ]
