(* Tests for the paper's sketched extensions: placement advice (§9),
   adaptive defrost (§4.2's priority-queue alternative), RPC (§4.1's
   third option), and the Jacobi grid workload. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Rights = Platinum_core.Rights
module Cpage = Platinum_core.Cpage
module Cmap = Platinum_core.Cmap
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Defrost = Platinum_core.Defrost
module Fault = Platinum_core.Fault
module Api = Platinum_kernel.Api
module Memsys = Platinum_kernel.Memsys
module Rpc = Platinum_kernel.Rpc
module Runner = Platinum_runner.Runner
module Report = Platinum_stats.Report
module Outcome = Platinum_workload.Outcome
module Jacobi = Platinum_workload.Jacobi

let mk ?(nprocs = 4) () =
  let config = Config.butterfly_plus ~nprocs ~page_words:8 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let engine = Engine.create () in
  let coh =
    Coherent.create (Machine.create config) ~engine ~policy ~frames_per_module:16 ()
  in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  (coh, cm, page, engine)

(* --- advice (core level) --- *)

let test_advise_freeze () =
  let coh, cm, page, _ = mk () in
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 7);
  let lat = Coherent.advise coh ~now:1_000 ~proc:0 ~cmap:cm ~vpage:0 Coherent.Freeze in
  Alcotest.(check bool) "frozen" true page.Cpage.frozen;
  Alcotest.(check bool) "cost charged" true (lat > 0);
  (* Still readable and writable, remotely. *)
  let v, _ = Coherent.read_word coh ~now:10_000 ~proc:2 ~cmap:cm ~vaddr:0 in
  Alcotest.(check int) "data intact" 7 v;
  Alcotest.(check int) "single copy" 1 (Cpage.ncopies page);
  Alcotest.(check bool) "invariants" true (Coherent.check_invariants coh = Ok ())

let test_advise_freeze_collapses_replicas () =
  let coh, cm, page, _ = mk () in
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 7);
  ignore (Coherent.read_word coh ~now:100_000_000 ~proc:1 ~cmap:cm ~vaddr:0);
  ignore (Coherent.read_word coh ~now:200_000_000 ~proc:2 ~cmap:cm ~vaddr:0);
  Alcotest.(check int) "3 copies before" 3 (Cpage.ncopies page);
  ignore (Coherent.advise coh ~now:300_000_000 ~proc:0 ~cmap:cm ~vpage:0 Coherent.Freeze);
  Alcotest.(check int) "one copy after" 1 (Cpage.ncopies page);
  Alcotest.(check bool) "frozen" true page.Cpage.frozen;
  let v, _ = Coherent.read_word coh ~now:400_000_000 ~proc:3 ~cmap:cm ~vaddr:0 in
  Alcotest.(check int) "data survived the collapse" 7 v;
  Alcotest.(check bool) "invariants" true (Coherent.check_invariants coh = Ok ())

let test_advise_thaw () =
  let coh, cm, page, _ = mk () in
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 7);
  ignore (Coherent.advise coh ~now:1_000 ~proc:0 ~cmap:cm ~vpage:0 Coherent.Freeze);
  ignore (Coherent.advise coh ~now:2_000 ~proc:0 ~cmap:cm ~vpage:0 Coherent.Thaw);
  Alcotest.(check bool) "thawed" false page.Cpage.frozen;
  (* A later read replicates again (advice thaw, like the daemon's, is
     not a protocol invalidation). *)
  ignore (Coherent.read_word coh ~now:100_000_000 ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check int) "replicable after thaw" 2 (Cpage.ncopies page)

let test_advise_home () =
  let coh, cm, page, _ = mk () in
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 7);
  ignore (Coherent.read_word coh ~now:100_000_000 ~proc:1 ~cmap:cm ~vaddr:0);
  ignore (Coherent.advise coh ~now:200_000_000 ~proc:0 ~cmap:cm ~vpage:0 (Coherent.Home 3));
  Alcotest.(check int) "one copy" 1 (Cpage.ncopies page);
  Alcotest.(check bool) "on module 3" true (Cpage.has_copy_on page 3);
  let v, _ = Coherent.read_word coh ~now:300_000_000 ~proc:3 ~cmap:cm ~vaddr:0 in
  Alcotest.(check int) "data moved intact" 7 v;
  Alcotest.(check bool) "invariants" true (Coherent.check_invariants coh = Ok ())

let test_advise_home_empty_page () =
  let coh, cm, page, _ = mk () in
  ignore (Coherent.advise coh ~now:0 ~proc:0 ~cmap:cm ~vpage:0 (Coherent.Home 2));
  Alcotest.(check bool) "materialized on module 2" true (Cpage.has_copy_on page 2);
  let v, _ = Coherent.read_word coh ~now:1_000_000 ~proc:0 ~cmap:cm ~vaddr:0 in
  Alcotest.(check int) "zero filled" 0 v

let test_advise_unmapped_raises () =
  let coh, cm, _, _ = mk () in
  Alcotest.(check bool) "unmapped advice raises" true
    (try
       ignore (Coherent.advise coh ~now:0 ~proc:0 ~cmap:cm ~vpage:9 Coherent.Thaw);
       false
     with Fault.Unmapped _ -> true)

(* --- advice through the kernel API --- *)

let test_api_advise_roundtrip () =
  let invals = ref (-1) in
  let r =
    Runner.time (fun () ->
        let a = Api.alloc_pages 1 in
        Api.write a 1;
        Api.advise a 1 Memsys.Freeze;
        (* Writes from everywhere now go to one pinned copy: no protocol
           invalidations at all. *)
        let worker me = Api.write (a + me) me in
        Api.spawn_join_all ~procs:[ 0; 1; 2; 3 ] (List.init 4 (fun me _ -> worker me)))
  in
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  invals := c.Platinum_core.Counters.shootdowns;
  (* the only shootdown is the advise itself *)
  Alcotest.(check bool) "no invalidation traffic after the hint" true (!invals <= 1);
  let frozen = List.filter (fun row -> row.Report.frozen_now) r.Runner.report.Report.pages in
  Alcotest.(check bool) "the page is frozen" true
    (List.exists (fun row -> row.Report.label = "heap[0]") frozen)

let test_api_advise_home_places_data () =
  let home = ref (-1) in
  let r =
    Runner.time (fun () ->
        let a = Api.alloc_pages 1 in
        Api.write a 5;
        Api.advise a 1 (Memsys.Home 7))
  in
  Coherent.iter_cpages
    (fun p ->
      if p.Cpage.label = "heap[0]" then
        home := (match Cpage.copies p with [ f ] -> Platinum_phys.Frame.mem_module f | _ -> -2))
    r.Runner.setup.Runner.coherent;
  Alcotest.(check int) "placed on node 7" 7 !home

(* --- adaptive defrost --- *)

let freeze_via_protocol coh cm page =
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 1);
  ignore (Coherent.read_word coh ~now:1_000 ~proc:1 ~cmap:cm ~vaddr:0);
  ignore (Coherent.write_word coh ~now:2_000 ~proc:0 ~cmap:cm ~vaddr:0 2);
  ignore (Coherent.read_word coh ~now:3_000 ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check bool) "setup: frozen" true page.Cpage.frozen

let test_adaptive_thaws_at_deadline () =
  let coh, cm, page, engine = mk () in
  Defrost.install ~mode:Defrost.default_adaptive coh engine;
  freeze_via_protocol coh cm page;
  (* initial_t2 = 100 ms: not thawed before, thawed after. *)
  Engine.run_until engine 50_000_000;
  Alcotest.(check bool) "still frozen at 50ms" true page.Cpage.frozen;
  Engine.run_until engine 150_000_000;
  Alcotest.(check bool) "thawed by its own deadline" false page.Cpage.frozen

let test_adaptive_backs_off_on_refreeze () =
  let coh, cm, page, engine = mk () in
  Defrost.install ~mode:Defrost.default_adaptive coh engine;
  freeze_via_protocol coh cm page;
  Alcotest.(check int) "initial per-page t2" 100_000_000 page.Cpage.adaptive_t2;
  Engine.run_until engine 110_000_000;
  Alcotest.(check bool) "thawed once" false page.Cpage.frozen;
  (* Immediately refreeze (the thaw was wrong: still write-shared):
     replicate, invalidate, and come back inside t1. *)
  let t = 110_500_000 in
  ignore (Coherent.read_word coh ~now:t ~proc:1 ~cmap:cm ~vaddr:0);
  ignore (Coherent.write_word coh ~now:(t + 1_000) ~proc:0 ~cmap:cm ~vaddr:0 3);
  ignore (Coherent.read_word coh ~now:(t + 2_000) ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check bool) "refrozen" true page.Cpage.frozen;
  Alcotest.(check int) "per-page t2 doubled" 200_000_000 page.Cpage.adaptive_t2

let test_adaptive_ignores_stale_wakeups () =
  let coh, cm, page, engine = mk () in
  Defrost.install ~mode:Defrost.default_adaptive coh engine;
  freeze_via_protocol coh cm page;
  (* Thaw manually before the daemon's deadline; then refreeze.  The
     stale wake-up must not thaw the new freeze early. *)
  Coherent.thaw_page coh ~now:10_000_000 ~by_daemon:false page;
  let t = 20_000_000 in
  ignore (Coherent.read_word coh ~now:t ~proc:1 ~cmap:cm ~vaddr:0);
  ignore (Coherent.write_word coh ~now:(t + 1_000) ~proc:0 ~cmap:cm ~vaddr:0 3);
  ignore (Coherent.read_word coh ~now:(t + 2_000) ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check bool) "refrozen" true page.Cpage.frozen;
  (* The first freeze's wake-up fires around t=103ms; the refreeze came
     within the 50ms window, so its own deadline is ~20ms + 200ms. *)
  Engine.run_until engine 150_000_000;
  Alcotest.(check bool) "stale wakeup ignored" true page.Cpage.frozen;
  Engine.run_until engine 250_000_000;
  Alcotest.(check bool) "thawed at its own deadline" false page.Cpage.frozen

let test_adaptive_in_full_run () =
  (* The phase-change pattern under adaptive defrost: frozen in phase 1,
     thawed in time for phase 2 without any periodic sweep. *)
  let out, main = Platinum_workload.Patterns.phase_change ~nprocs:4 ~pages:1 ~rounds:50 in
  let r =
    Runner.time
      ~defrost:
        (Defrost.Adaptive
           { initial_t2 = 100_000_000; max_t2 = 1_000_000_000; refreeze_window = 50_000_000 })
      main
  in
  Alcotest.(check bool) "pattern ok" true out.Outcome.ok;
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Alcotest.(check bool) "froze" true (c.Counters.freezes >= 1);
  Alcotest.(check bool) "adaptively thawed" true (c.Counters.thaws >= 1)

(* --- RPC --- *)

let test_rpc_basic () =
  Runner.time (fun () ->
      let server = Rpc.serve ~proc:2 (fun args -> Array.map (fun x -> x * 2) args) in
      let reply = Rpc.call server [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "doubled" [| 2; 4; 6 |] reply;
      Rpc.shutdown server)
  |> ignore

let test_rpc_serializes_handler () =
  (* Concurrent calls from many clients are executed one at a time by the
     server thread: a shared counter needs no lock. *)
  let final = ref 0 in
  Runner.time (fun () ->
      let counter = Api.alloc 1 in
      let server =
        Rpc.serve ~proc:0 (fun _ ->
            let v = Api.read counter in
            Api.compute 100_000 (* a window for races, were there any *);
            Api.write counter (v + 1);
            [| v + 1 |])
      in
      let client me =
        for _ = 1 to 5 do
          ignore (Rpc.call server [| me |])
        done
      in
      Api.spawn_join_all ~procs:[ 1; 2; 3 ] (List.init 3 (fun me _ -> client me));
      Rpc.shutdown server;
      final := Api.read counter)
  |> ignore;
  Alcotest.(check int) "no lost updates" 15 !final

let test_rpc_async_overlap () =
  Runner.time (fun () ->
      let server = Rpc.serve ~proc:3 (fun a -> Api.compute 5_000_000; a) in
      let t0 = Api.now () in
      let pending = List.init 4 (fun i -> Rpc.call_async server [| i |]) in
      (* All four requests are in flight; total should be ~4 service
         times, not 4 * (round trip + service). *)
      let replies = List.map (fun f -> f ()) pending in
      let elapsed = Api.now () - t0 in
      List.iteri
        (fun i r -> Alcotest.(check (array int)) "reply in order" [| i |] r)
        replies;
      Alcotest.(check bool) "pipelined" true (elapsed < 40_000_000);
      Rpc.shutdown server)
  |> ignore

(* --- Jacobi --- *)

let test_jacobi_correct () =
  List.iter
    (fun (n, nprocs, iters) ->
      let out, main = Jacobi.make (Jacobi.params ~n ~iters ~nprocs ()) in
      ignore (Runner.time main);
      if not out.Outcome.ok then Alcotest.fail out.Outcome.detail)
    [ (32, 1, 5); (32, 4, 5); (64, 8, 4); (33, 3, 3) ]

let test_jacobi_boundary_sharing () =
  let out, main = Jacobi.make (Jacobi.params ~n:64 ~iters:6 ~nprocs:4 ()) in
  let r = Runner.time main in
  Alcotest.(check bool) "ok" true out.Outcome.ok;
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  (* Boundary rows are re-replicated and re-invalidated across
     iterations. *)
  Alcotest.(check bool) "boundary replication happened" true (c.Counters.replications > 10);
  Alcotest.(check bool) "and invalidation when owners rewrite" true
    (c.Counters.shootdowns > 5)

let suite =
  [
    ("advise: freeze", `Quick, test_advise_freeze);
    ("advise: freeze collapses replicas", `Quick, test_advise_freeze_collapses_replicas);
    ("advise: thaw", `Quick, test_advise_thaw);
    ("advise: home", `Quick, test_advise_home);
    ("advise: home on an empty page", `Quick, test_advise_home_empty_page);
    ("advise: unmapped raises", `Quick, test_advise_unmapped_raises);
    ("advise: freeze hint kills invalidation traffic", `Quick, test_api_advise_roundtrip);
    ("advise: home hint places data", `Quick, test_api_advise_home_places_data);
    ("adaptive defrost: thaws at the deadline", `Quick, test_adaptive_thaws_at_deadline);
    ("adaptive defrost: backs off on refreeze", `Quick, test_adaptive_backs_off_on_refreeze);
    ("adaptive defrost: ignores stale wakeups", `Quick, test_adaptive_ignores_stale_wakeups);
    ("adaptive defrost: full run", `Quick, test_adaptive_in_full_run);
    ("rpc: basic round trip", `Quick, test_rpc_basic);
    ("rpc: serializes the handler", `Quick, test_rpc_serializes_handler);
    ("rpc: async calls pipeline", `Quick, test_rpc_async_overlap);
    ("jacobi: correct", `Quick, test_jacobi_correct);
    ("jacobi: boundary sharing", `Quick, test_jacobi_boundary_sharing);
  ]
