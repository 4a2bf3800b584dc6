(* The domain-parallel sweep harness (Runner.Par).

   Two contracts: (1) Par.map is List.map — same results, same order —
   whatever the pool width; (2) a sweep of full simulations rendered
   through the pool is byte-identical at -j 4 and -j 1, which is what lets
   every figure/ablation grid fan out without perturbing the report. *)

module Par = Platinum_runner.Par
module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Counters = Platinum_core.Counters
module Coherent = Platinum_core.Coherent
module Outcome = Platinum_workload.Outcome
module Gauss = Platinum_workload.Gauss
module Jacobi = Platinum_workload.Jacobi

let qtest = QCheck_alcotest.to_alcotest

let test_default_jobs () =
  Alcotest.(check bool) "recommended >= 1" true (Par.default_jobs () >= 1);
  Par.set_jobs 3;
  Alcotest.(check int) "set_jobs sticks" 3 (Par.get_jobs ());
  Par.set_jobs 0;
  Alcotest.(check int) "0 resets to the default" (Par.default_jobs ()) (Par.get_jobs ());
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Par.set_jobs: negative job count") (fun () -> Par.set_jobs (-1))

let prop_par_map_is_list_map =
  QCheck.Test.make ~name:"Par.map == List.map in results and order" ~count:50
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (jobs, xs) ->
      let f x = (x * x) - (3 * x) in
      Par.map ~jobs f xs = List.map f xs)

let test_par_map_exception () =
  (* The earliest failing cell's exception wins, after all cells settle. *)
  let boom i = if i mod 2 = 1 then failwith ("cell " ^ string_of_int i) else i in
  Alcotest.check_raises "first failure (input order) is re-raised" (Failure "cell 1")
    (fun () -> ignore (Par.map ~jobs:4 boom [ 0; 1; 2; 3; 4; 5 ]))

(* --- byte-identical sweeps --- *)

(* A miniature figure-style grid: full simulator instances per cell,
   rendered to the same fingerprint lines the bench tables are built
   from. *)
let render_sweep ~jobs =
  let cells =
    [ (`Gauss, 1); (`Gauss, 2); (`Gauss, 4); (`Jacobi, 2); (`Jacobi, 4) ]
  in
  Par.map ~jobs
    (fun (kind, nprocs) ->
      let config = Config.butterfly_plus ~nprocs () in
      let out, main =
        match kind with
        | `Gauss -> Gauss.make (Gauss.params ~n:48 ~nprocs ~verify:false ())
        | `Jacobi -> Jacobi.make (Jacobi.params ~n:32 ~iters:3 ~nprocs ~verify:false ())
      in
      let r = Runner.time ~config main in
      if not out.Outcome.ok then Alcotest.fail ("sweep cell failed: " ^ out.Outcome.detail);
      let c = Coherent.counters r.Runner.setup.Runner.coherent in
      Printf.sprintf "p=%d elapsed=%d work=%d rf=%d wf=%d repl=%d migr=%d freeze=%d" nprocs
        r.Runner.elapsed out.Outcome.work_ns c.Counters.read_faults c.Counters.write_faults
        c.Counters.replications c.Counters.migrations c.Counters.freezes)
    cells

let test_sweep_j4_equals_j1 () =
  let seq = render_sweep ~jobs:1 in
  let par = render_sweep ~jobs:4 in
  Alcotest.(check (list string)) "-j 4 sweep is byte-identical to -j 1" seq par

let suite =
  [
    ("par: jobs setting", `Quick, test_default_jobs);
    qtest prop_par_map_is_list_map;
    ("par: exception propagation", `Quick, test_par_map_exception);
    ("golden: -j 4 sweep == -j 1 sweep", `Quick, test_sweep_j4_equals_j1);
  ]
