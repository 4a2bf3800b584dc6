(* Workload tests: application self-verification under every policy, plus
   the memory-behaviour claims the paper makes about each program. *)

module Runner = Platinum_runner.Runner
module Report = Platinum_stats.Report
module Config = Platinum_machine.Config
module Policy = Platinum_core.Policy
module Outcome = Platinum_workload.Outcome
module Gauss = Platinum_workload.Gauss
module Gauss_mp = Platinum_workload.Gauss_mp
module Mergesort = Platinum_workload.Mergesort
module Backprop = Platinum_workload.Backprop
module Patterns = Platinum_workload.Patterns
module Anecdote = Platinum_workload.Anecdote
module Counters = Platinum_core.Counters
module Coherent = Platinum_core.Coherent

let policy name config =
  match Policy.of_string ~t1:config.Config.t1_freeze_window name with
  | Ok p -> p
  | Error e -> failwith e

let run_outcome ?config ?policy (out, main) =
  let r = Runner.time ?config ?policy main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  (out, r)

(* --- Gaussian elimination --- *)

let test_gauss_correct_small () =
  List.iter
    (fun nprocs ->
      let p = Gauss.params ~n:48 ~nprocs () in
      ignore (run_outcome (Gauss.make p)))
    [ 1; 3; 4; 16 ]

let test_gauss_correct_all_policies () =
  let config = Config.butterfly_plus ~nprocs:8 () in
  List.iter
    (fun name ->
      let p = Gauss.params ~n:32 ~nprocs:8 () in
      ignore (run_outcome ~config ~policy:(policy name config) (Gauss.make p)))
    Policy.default_names

let test_gauss_memory_behaviour () =
  let p = Gauss.params ~n:64 ~nprocs:8 () in
  let out, r = run_outcome (Gauss.make p) in
  ignore out;
  (* The paper: only the event-count page is frozen; pivot rows replicate. *)
  let sync_rows = Report.find r.Runner.report ~label_prefix:"gauss-sync" in
  Alcotest.(check bool) "the sync page froze" true
    (List.exists (fun row -> row.Report.was_frozen) sync_rows);
  let heap_rows = Report.find r.Runner.report ~label_prefix:"heap" in
  Alcotest.(check bool) "no matrix page froze" true
    (List.for_all (fun row -> not row.Report.was_frozen) heap_rows);
  let replicated = List.filter (fun row -> row.Report.replications >= 7) heap_rows in
  Alcotest.(check bool) "pivot rows replicated to every processor" true
    (List.length replicated >= 32)

let test_gauss_speedup_order () =
  (* Shape, not absolute numbers: more processors must help.  n = 96 rows
     in 1 KB pages keeps the reference density in the regime where
     replication pays (Table 1); the paper's full-size regime (n = 800,
     4 KB pages) is the fig1 benchmark. *)
  let work n nprocs =
    let config = Config.butterfly_plus ~nprocs ~page_words:256 () in
    let out, _ =
      run_outcome ~config (Gauss.make (Gauss.params ~n ~nprocs ~verify:false ()))
    in
    out.Outcome.work_ns
  in
  let t1 = work 96 1 and t4 = work 96 4 and t8 = work 96 8 in
  Alcotest.(check bool) "4 procs beat 1" true (t4 < t1);
  Alcotest.(check bool) "8 procs beat 4" true (t8 < t4)

let test_gauss_platinum_beats_uniform_system () =
  (* 1 KB pages keep n = 96 in the density regime where replication pays
     (Table 1: rho = 96/256 = 0.375 > the never-pay threshold). *)
  let config = Config.butterfly_plus ~nprocs:8 ~page_words:256 () in
  let work name =
    let out, _ =
      run_outcome ~config ~policy:(policy name config)
        (Gauss.make (Gauss.params ~n:96 ~nprocs:8 ~verify:false ()))
    in
    out.Outcome.work_ns
  in
  Alcotest.(check bool) "coherent memory beats the Uniform-System baseline" true
    (work "platinum" < work "uniform-system")

(* --- message-passing variant --- *)

let test_gauss_mp_correct () =
  List.iter
    (fun nprocs ->
      let p = Gauss_mp.params ~n:48 ~nprocs () in
      ignore (run_outcome (Gauss_mp.make p)))
    [ 1; 2; 5; 8 ]

let test_gauss_mp_no_data_sharing () =
  (* verify:false — the checking pass block-reads every row from the main
     thread and would itself replicate them. *)
  let p = Gauss_mp.params ~n:48 ~nprocs:8 ~verify:false () in
  let _, r = run_outcome (Gauss_mp.make p) in
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  (* Rows are private: the protocol never moves or invalidates them. *)
  Alcotest.(check int) "no migrations" 0 c.Counters.migrations;
  let row_repl =
    List.fold_left
      (fun acc row -> acc + row.Report.replications)
      0
      (Report.find r.Runner.report ~label_prefix:"heap")
  in
  Alcotest.(check int) "no data-page replication" 0 row_repl

(* --- merge sort --- *)

let test_mergesort_correct () =
  List.iter
    (fun (n, nprocs) ->
      let p = Mergesort.params ~n ~nprocs () in
      ignore (run_outcome (Mergesort.make p)))
    [ (1024, 1); (1024, 2); (4096, 8); (1000, 4) (* rounds up *) ]

let test_mergesort_rejects_bad_procs () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (try
       ignore (Mergesort.params ~nprocs:3 ());
       false
     with Invalid_argument _ -> true)

let test_mergesort_all_policies () =
  let config = Config.butterfly_plus ~nprocs:4 () in
  List.iter
    (fun name ->
      let p = Mergesort.params ~n:2048 ~nprocs:4 () in
      ignore (run_outcome ~config ~policy:(policy name config) (Mergesort.make p)))
    Policy.default_names

let test_mergesort_on_uma () =
  (* The same program runs unchanged on the Sequent-like machine. *)
  let p = Mergesort.params ~n:4096 ~nprocs:4 () in
  let out, main = Mergesort.make p in
  let r = Runner.time_uma ~nprocs:4 main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  Alcotest.(check bool) "ran" true (r.Runner.uma_elapsed > 0)

let test_mergesort_platinum_beats_small_cache_uma () =
  (* Figure 5 compares SPEEDUP curves: the Butterfly under PLATINUM scales
     better than the Sequent, whose small write-through caches put every
     write (and almost every read of the large problem) on one bus. *)
  let n = 32_768 in
  let plat nprocs =
    let out, main = Mergesort.make (Mergesort.params ~n ~nprocs ~verify:false ()) in
    ignore (Runner.time main);
    out.Outcome.work_ns
  in
  let uma nprocs =
    let out, main = Mergesort.make (Mergesort.params ~n ~nprocs ~verify:false ()) in
    ignore (Runner.time_uma ~nprocs main);
    out.Outcome.work_ns
  in
  let speedup_p = float_of_int (plat 1) /. float_of_int (plat 8) in
  let speedup_u = float_of_int (uma 1) /. float_of_int (uma 8) in
  Alcotest.(check bool)
    (Printf.sprintf "PLATINUM speedup %.2f > Sequent speedup %.2f" speedup_p speedup_u)
    true (speedup_p > speedup_u)

(* --- backprop --- *)

let test_backprop_runs_and_bounded () =
  List.iter
    (fun nprocs ->
      let p = Backprop.params ~epochs:2 ~patterns:4 ~nprocs () in
      ignore (run_outcome (Backprop.make p)))
    [ 1; 2; 8 ]

let test_backprop_pages_freeze () =
  let p = Backprop.params ~epochs:2 ~patterns:4 ~nprocs:8 () in
  let _, r = run_outcome (Backprop.make p) in
  (* "The coherent memory system quickly gives up and the data pages of
     the application are frozen in place." *)
  let data_rows = Report.find r.Runner.report ~label_prefix:"heap" in
  Alcotest.(check bool) "all shared data pages froze" true
    (data_rows <> [] && List.for_all (fun row -> row.Report.was_frozen) data_rows)

(* --- synthetic patterns --- *)

let test_private_chunks_stay_local () =
  let out, main = Patterns.private_chunks ~nprocs:4 ~pages_each:2 ~rounds:3 in
  let r = Runner.time main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  (* Only data pages matter: the shared barrier freezes by design. *)
  let heap = Report.find r.Runner.report ~label_prefix:"heap" in
  Alcotest.(check bool) "private data never frozen" true
    (List.for_all (fun row -> not row.Report.was_frozen) heap);
  Alcotest.(check bool) "private data never invalidated" true
    (List.for_all (fun row -> row.Report.invalidations = 0) heap)

let test_read_shared_replicates () =
  let out, main = Patterns.read_shared ~nprocs:4 ~pages:2 ~rounds:3 in
  let r = Runner.time main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  (* Each of 2 data pages replicated to the 3 non-writer processors. *)
  Alcotest.(check bool) "one replica per (page, proc)" true (c.Counters.replications >= 6);
  Alcotest.(check int) "no data-page freezes" 0
    (List.length
       (List.filter
          (fun row -> row.Report.was_frozen)
          (Report.find r.Runner.report ~label_prefix:"heap")))

let test_ping_pong_freezes () =
  let out, main = Patterns.ping_pong ~writers:4 ~rounds:40 in
  let r = Runner.time main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  let rows = Report.find r.Runner.report ~label_prefix:"heap" in
  Alcotest.(check bool) "the ping-pong page froze" true
    (List.exists (fun row -> row.Report.was_frozen) rows)

let test_phase_change_thaws () =
  (* Shrink t2 so the daemon fires inside the quiet period. *)
  let config =
    Config.with_policy_params ~t2_defrost_period:500_000_000 (Config.butterfly_plus ~nprocs:4 ())
  in
  let out, main = Patterns.phase_change ~nprocs:4 ~pages:1 ~rounds:50 in
  let r = Runner.time ~config main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Alcotest.(check bool) "froze during phase 1" true (c.Counters.freezes >= 1);
  Alcotest.(check bool) "daemon thawed it" true (c.Counters.thaws >= 1);
  let rows = Report.find r.Runner.report ~label_prefix:"heap" in
  Alcotest.(check bool) "replicated after the thaw" true
    (List.exists (fun row -> row.Report.replications > 0 && row.Report.was_frozen) rows)

(* --- the §4.2 anecdote --- *)

let anecdote_work ~old_version ~t2 =
  let config =
    Config.with_policy_params ~t2_defrost_period:t2 (Config.butterfly_plus ~nprocs:8 ())
  in
  let out, main = Anecdote.make (Anecdote.params ~iters:12_000 ~old_version ~nprocs:8 ()) in
  let r = Runner.time ~config main in
  if not out.Outcome.ok then Alcotest.fail out.Outcome.detail;
  (out.Outcome.work_ns, r)

let test_anecdote_old_slower () =
  let huge_t2 = 1_000_000_000_000 (* effectively no defrost *) in
  let old_ns, r = anecdote_work ~old_version:true ~t2:huge_t2 in
  let new_ns, _ = anecdote_work ~old_version:false ~t2:huge_t2 in
  Alcotest.(check bool) "co-located lock is dramatically slower" true
    (float_of_int old_ns > 1.5 *. float_of_int new_ns);
  (* And the parameter page is indeed frozen. *)
  let rows = Report.find r.Runner.report ~label_prefix:"heap" in
  Alcotest.(check bool) "parameter page frozen" true
    (List.exists (fun row -> row.Report.frozen_now) rows)

let test_anecdote_defrost_rescues () =
  let old_frozen, _ = anecdote_work ~old_version:true ~t2:1_000_000_000_000 in
  let old_thawed, r = anecdote_work ~old_version:true ~t2:5_000_000 in
  let new_ns, _ = anecdote_work ~old_version:false ~t2:5_000_000 in
  Alcotest.(check bool) "thawing recovers most of the loss" true
    (float_of_int old_thawed < 0.65 *. float_of_int old_frozen);
  Alcotest.(check bool) "thawed old version close to the fixed one" true
    (float_of_int old_thawed < 1.3 *. float_of_int new_ns);
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Alcotest.(check bool) "the daemon actually thawed" true (c.Counters.thaws >= 1)

(* --- jacobi --- *)

let test_jacobi_all_policies () =
  let config = Config.butterfly_plus ~nprocs:4 () in
  List.iter
    (fun name ->
      let module J = Platinum_workload.Jacobi in
      let out, main = J.make (J.params ~n:24 ~iters:3 ~nprocs:4 ()) in
      ignore (Runner.time ~config ~policy:(policy name config) main);
      if not out.Outcome.ok then
        Alcotest.fail (Printf.sprintf "jacobi under %s: %s" name out.Outcome.detail))
    Policy.default_names

(* --- the unrolled elimination step ---

   [Gauss.eliminate] against a plain per-element loop, on random rows
   with negative entries, every [len] 1-40 and [off] 0-7: the same masked
   words inside the range, untouched words outside it.  A range past the
   end raises before any element changes. *)
let plain_eliminate ~row ~piv ~off ~len =
  let factor = if piv.(off) = 0 then 0 else row.(off) / piv.(off) in
  for j = off to off + len - 1 do
    row.(j) <- (row.(j) - (factor * piv.(j))) land Gauss.value_mask
  done

let test_eliminate_matches_plain () =
  let rng = Random.State.make [| 44 |] in
  let entry () = Random.State.int rng (2 * (Gauss.value_mask + 1)) - Gauss.value_mask - 1 in
  for len = 1 to 40 do
    for off = 0 to 7 do
      for _trial = 1 to 4 do
        let size = off + len + Random.State.int rng 4 in
        let piv = Array.init size (fun _ -> entry ()) in
        let row = Array.init size (fun _ -> entry ()) in
        if Random.State.int rng 4 = 0 then piv.(off) <- 1 + Random.State.int rng 1000;
        let want = Array.copy row in
        plain_eliminate ~row:want ~piv ~off ~len;
        Gauss.eliminate ~row ~piv ~off ~len;
        Alcotest.(check (array int)) (Printf.sprintf "len %d, off %d" len off) want row
      done
    done
  done;
  let row = Array.init 30 (fun i -> i - 15) and piv = Array.make 30 1 in
  let row0 = Array.copy row in
  Alcotest.check_raises "a range past the end" (Invalid_argument "Gauss.eliminate: out of range")
    (fun () -> Gauss.eliminate ~row ~piv ~off:3 ~len:28);
  Alcotest.(check (array int)) "raises before any element changes" row0 row

(* --- parameter validation --- *)

let test_param_validation () =
  let rejects f = Alcotest.(check bool) "rejected" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects (fun () -> Gauss.params ~n:1 ~nprocs:4 ());
  rejects (fun () -> Gauss.params ~n:16 ~nprocs:0 ());
  rejects (fun () -> Mergesort.params ~nprocs:6 ());
  rejects (fun () -> Backprop.params ~units:1 ~nprocs:2 ());
  rejects (fun () -> Platinum_workload.Jacobi.params ~n:3 ~nprocs:1 ());
  rejects (fun () -> Platinum_workload.Jacobi.params ~n:16 ~nprocs:15 ())

(* --- determinism --- *)

let test_runs_are_deterministic () =
  let go () =
    let out, main = Gauss.make (Gauss.params ~n:48 ~nprocs:4 ~verify:false ()) in
    let r = Runner.time main in
    (out.Outcome.work_ns, r.Runner.elapsed)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "bit-identical timing across runs" true (a = b)

let suite =
  [
    ("gauss: correct at several widths", `Quick, test_gauss_correct_small);
    ("gauss: correct under every policy", `Quick, test_gauss_correct_all_policies);
    ("gauss: only the sync page freezes", `Quick, test_gauss_memory_behaviour);
    ("gauss: speedup shape", `Slow, test_gauss_speedup_order);
    ("gauss: beats the Uniform System", `Slow, test_gauss_platinum_beats_uniform_system);
    ("gauss-mp: correct", `Quick, test_gauss_mp_correct);
    ("gauss-mp: no coherence traffic on data", `Quick, test_gauss_mp_no_data_sharing);
    ("mergesort: correct", `Quick, test_mergesort_correct);
    ("mergesort: rejects bad proc counts", `Quick, test_mergesort_rejects_bad_procs);
    ("mergesort: correct under every policy", `Quick, test_mergesort_all_policies);
    ("mergesort: runs on the UMA machine", `Quick, test_mergesort_on_uma);
    ("mergesort: beats the small-cache UMA", `Slow, test_mergesort_platinum_beats_small_cache_uma);
    ("backprop: runs, bounded", `Quick, test_backprop_runs_and_bounded);
    ("backprop: data pages freeze", `Quick, test_backprop_pages_freeze);
    ("patterns: private data stays local", `Quick, test_private_chunks_stay_local);
    ("patterns: read-shared data replicates", `Quick, test_read_shared_replicates);
    ("patterns: ping-pong freezes", `Quick, test_ping_pong_freezes);
    ("patterns: phase change thaws", `Quick, test_phase_change_thaws);
    ("anecdote: co-located lock is a disaster", `Quick, test_anecdote_old_slower);
    ("anecdote: the defrost daemon rescues it", `Quick, test_anecdote_defrost_rescues);
    ("jacobi: correct under every policy", `Quick, test_jacobi_all_policies);
    ("gauss: unrolled elimination equals a plain loop", `Quick, test_eliminate_matches_plain);
    ("workloads: parameter validation", `Quick, test_param_validation);
    ("determinism: identical runs", `Quick, test_runs_are_deterministic);
  ]
