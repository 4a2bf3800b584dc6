(* Shared plumbing for the experiment harness. *)

module Runner = Platinum_runner.Runner
module Par = Platinum_runner.Par
module Report = Platinum_stats.Report
module Config = Platinum_machine.Config
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Outcome = Platinum_workload.Outcome
module Time_ns = Platinum_sim.Time_ns

type scale = {
  full : bool;  (** paper-size problems (slower) *)
  procs : int list;  (** processor counts for speedup curves *)
  shards : int;  (** event-queue shards for one simulation (the scale experiment) *)
}

let default_procs = [ 1; 2; 4; 8; 12; 16 ]

(* Fan a grid of independent simulation cells over the domain pool (width
   set by the harness's -j flag; -j 1 is strictly sequential).  Cell
   functions must not print: compute the grid first, then format rows in
   input order — that keeps the report byte-identical at any -j. *)
let par_map f cells = Par.map f cells

let policy_named name (config : Config.t) =
  match Policy.of_string ~t1:config.Config.t1_freeze_window name with
  | Ok p -> p
  | Error e -> failwith e

(* Run a workload (outcome, main) on PLATINUM; die loudly if its
   self-verification failed. *)
let run_platinum ?config ?policy (out, main) =
  let r = Runner.time ?config ?policy main in
  if not out.Outcome.ok then failwith ("workload verification failed: " ^ out.Outcome.detail);
  (out.Outcome.work_ns, r)

let run_uma ~nprocs (out, main) =
  let r = Runner.time_uma ~nprocs main in
  if not out.Outcome.ok then failwith ("workload verification failed: " ^ out.Outcome.detail);
  (out.Outcome.work_ns, r)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let subsection title = Printf.printf "\n--- %s ---\n%!" title

(* Speedup-curve table: one row per processor count, one (name, T(p))
   series per column.  T1 of each series is its own baseline. *)
let print_speedup_table ~procs series =
  let name_w = 14 in
  Printf.printf "%6s" "procs";
  List.iter (fun (name, _) -> Printf.printf " | %*s %8s" name_w name "") series;
  Printf.printf "\n";
  List.iteri
    (fun i p ->
      Printf.printf "%6d" p;
      List.iter
        (fun (_, times) ->
          let t = List.nth times i in
          let t1 = List.hd times in
          let p1 = List.hd procs in
          let speedup = float_of_int (t1 * p1) /. float_of_int t in
          Printf.printf " | %*s %8s"
            name_w
            (Printf.sprintf "%8.2fx" speedup)
            (Time_ns.to_string t))
        series;
      Printf.printf "\n")
    procs;
  Printf.printf "%!"

(* (q1, median, q3) of repeated host measurements; sorts [a] in place. *)
let quartiles a =
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

let ms_of ns = float_of_int ns /. 1e6

let check_shape what ok =
  Printf.printf "  [%s] %s\n%!" (if ok then "OK" else "MISS") what

(* A check_shape that must hold: a miss is remembered, and the experiment
   ends with [exit_on_missed_gates], which exits 1 after a miss. *)
let missed_gates = ref 0

let gate what ok =
  check_shape what ok;
  if not ok then incr missed_gates

let exit_on_missed_gates ~tag what =
  if !missed_gates > 0 then begin
    Printf.printf "%s: %d gate(s) missed: %s\n%!" tag !missed_gates what;
    exit 1
  end

(* One "host" JSON object for every BENCH_*.json file, so trajectory
   entries are comparable across machines. *)
let host_json () =
  Printf.sprintf
    "{ \"cores\": %d, \"recommended_domains\": %d, \"ocaml_version\": %S, \
     \"word_size_bits\": %d }"
    (Domain.recommended_domain_count ())
    (Par.default_jobs ()) Sys.ocaml_version Sys.word_size
