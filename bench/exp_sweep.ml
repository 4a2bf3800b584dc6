(* sweep: the domain-parallel harness measuring itself.

   A fixed grid of (workload, policy, nprocs) cells — the same shape as
   every figure/ablation sweep — runs once sequentially (-j 1 semantics)
   and once on 4 domains, and the harness checks the two produce
   byte-identical result tables while recording both wall-clocks.  A hold-
   model micro-benchmark of the event core (the array-backed Eheap that
   sits under Engine, plus the full Engine dispatch loop) tracks
   events/sec as the median and quartiles of interleaved runs.
   Everything lands in BENCH_sweep.json so the perf trajectory is
   comparable across machines (host metadata included; a
   [parallel_meaningful] flag marks whether the host had the domains for
   the wall-clock comparison to mean anything). *)

open Exp_common
module Gauss = Platinum_workload.Gauss
module Mergesort = Platinum_workload.Mergesort
module Backprop = Platinum_workload.Backprop
module Outcome = Platinum_workload.Outcome
module Eheap = Platinum_sim.Eheap
module Engine = Platinum_sim.Engine
module Rng = Platinum_sim.Rng

(* --- the fixed sweep grid --- *)

type cell = {
  label : string;
  nprocs : int;
  policy : string;
  make : nprocs:int -> Outcome.t * (unit -> unit);
}

let grid =
  let gauss ~nprocs = Gauss.make (Gauss.params ~n:96 ~nprocs ~verify:false ()) in
  let msort ~nprocs = Mergesort.make (Mergesort.params ~n:8_192 ~nprocs ~verify:false ()) in
  let bprop ~nprocs = Backprop.make (Backprop.params ~epochs:1 ~nprocs ~verify:false ()) in
  List.concat
    [
      List.concat_map
        (fun policy ->
          List.map
            (fun nprocs -> { label = "gauss"; nprocs; policy; make = gauss })
            [ 1; 2; 4; 8 ])
        [ "platinum"; "uniform-system" ];
      List.map (fun nprocs -> { label = "msort"; nprocs; policy = "platinum"; make = msort })
        [ 1; 4 ];
      List.map (fun nprocs -> { label = "bprop"; nprocs; policy = "platinum"; make = bprop })
        [ 1; 4 ];
    ]

(* One deterministic result line per cell: simulated times and protocol
   counters — everything the figures are built from. *)
let run_cell c =
  let config = Config.butterfly_plus ~nprocs:c.nprocs () in
  let policy = policy_named c.policy config in
  let out, main = c.make ~nprocs:c.nprocs in
  let r = Runner.time ~config ~policy main in
  if not out.Outcome.ok then failwith ("sweep cell failed: " ^ out.Outcome.detail);
  let cnt = Coherent.counters r.Runner.setup.Runner.coherent in
  Printf.sprintf "%-6s %-15s p=%-2d elapsed=%-12d work=%-12d repl=%-5d migr=%-5d freeze=%d"
    c.label c.policy c.nprocs r.Runner.elapsed out.Outcome.work_ns
    cnt.Counters.replications cnt.Counters.migrations cnt.Counters.freezes

let timed_render ~jobs =
  let t0 = Unix.gettimeofday () in
  let lines = Par.map ~jobs run_cell grid in
  (lines, Unix.gettimeofday () -. t0)

(* --- event-core micro-benchmark (hold model) --- *)

(* Classic hold: keep [fill] pending events; [ops] times pop the minimum
   and push a successor a pseudo-random delay later.  This is exactly the
   event queue's steady-state access pattern. *)
let hold_ops = 200_000
let hold_fill = 64

let hold_eheap () =
  let rng = Rng.create 7L in
  let h = Eheap.create ~capacity:hold_fill ~dummy:0 () in
  for i = 0 to hold_fill - 1 do
    Eheap.add h ~time:(Rng.int rng 1_000) ~seq:i i
  done;
  let seq = ref hold_fill in
  for _ = 1 to hold_ops do
    let t = Eheap.min_time h in
    ignore (Eheap.pop h);
    Eheap.add h ~time:(t + 1 + Rng.int rng 1_000) ~seq:!seq !seq;
    incr seq
  done

(* Whole-engine dispatch: self-rescheduling events through schedule/run. *)
let engine_churn () =
  let e = Engine.create () in
  let rng = Rng.create 7L in
  let fired = ref 0 in
  let rec event () =
    incr fired;
    if !fired + hold_fill <= hold_ops then
      Engine.schedule_after e ~delay:(1 + Rng.int rng 1_000) event
  in
  for _ = 1 to hold_fill do
    Engine.schedule_after e ~delay:(1 + Rng.int rng 1_000) event
  done;
  Engine.run e

(* Single runs on a shared host vary by 2x, so each model runs
   [hold_runs] times, alternating with the other so both see the same
   host drift, and reports its median with the quartiles around it. *)
let hold_runs = 11

let rate_of f =
  let t0 = Unix.gettimeofday () in
  f ();
  float_of_int hold_ops /. (Unix.gettimeofday () -. t0)

let run (_ : scale) =
  section "sweep: domain-parallel harness wall-clock + event-core events/sec";
  let jobs_par = 4 in
  Printf.printf "grid: %d independent cells; host recommends %d domain(s)\n%!"
    (List.length grid) (Par.default_jobs ());
  let seq_lines, seq_wall = timed_render ~jobs:1 in
  let par_lines, par_wall = timed_render ~jobs:jobs_par in
  let identical = seq_lines = par_lines in
  List.iter print_endline seq_lines;
  let speedup = seq_wall /. par_wall in
  (* A single-core host runs the "parallel" pass on one domain: it still
     proves determinism (identical tables), but the wall-clock comparison
     is meaningless noise, so the comparison line is skipped and the JSON
     carries [parallel_meaningful: false] with a null speedup. *)
  let parallel_meaningful = Par.default_jobs () > 1 in
  Printf.printf "\n  sequential (-j 1): %.3f s wall\n" seq_wall;
  if parallel_meaningful then
    Printf.printf "  parallel   (-j %d): %.3f s wall  (%.2fx)\n" jobs_par par_wall speedup
  else
    Printf.printf "  (host has %d core(s): parallel wall-clock not meaningful, skipped)\n"
      (Par.default_jobs ());
  check_shape "-j 4 table byte-identical to -j 1" identical;
  (* ISSUE 2 targets >=3x on a 4-core host; a 1-core host can only confirm
     determinism and the absence of overhead, so gate the shape check on
     the host actually having the cores. *)
  if Par.default_jobs () >= 4 then
    check_shape "parallel sweep >= 3x on >=4-core host" (speedup >= 3.0);
  let eheap = Array.make hold_runs 0.0 and engine = Array.make hold_runs 0.0 in
  for i = 0 to hold_runs - 1 do
    eheap.(i) <- rate_of hold_eheap;
    engine.(i) <- rate_of engine_churn
  done;
  let eheap_q1, eheap_med, eheap_q3 = quartiles eheap in
  let engine_q1, engine_med, engine_q3 = quartiles engine in
  Printf.printf "\n  event core (hold model, %d ops, %d pending; median of %d interleaved runs):\n"
    hold_ops hold_fill hold_runs;
  let row name q1 med q3 =
    Printf.printf "    %-17s %12.0f events/s  (q1-q3 %.0f-%.0f)\n" name med q1 q3
  in
  row "eheap" eheap_q1 eheap_med eheap_q3;
  row "engine (on eheap)" engine_q1 engine_med engine_q3;
  check_shape "engine dispatch within 10x of the bare event heap (medians)"
    (engine_med *. 10.0 >= eheap_med);
  let oc = open_out "BENCH_sweep.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"sweep\",\n\
    \  \"parallelism\": \"grid\",\n\
    \  \"host\": %s,\n\
    \  \"grid_cells\": %d,\n\
    \  \"sequential\": { \"jobs\": 1, \"wall_s\": %.6f },\n\
    \  \"parallel\": { \"jobs\": %d, \"wall_s\": %.6f },\n\
    \  \"parallel_meaningful\": %b,\n\
    \  \"speedup\": %s,\n\
    \  \"identical_output\": %b,\n\
    \  \"event_core\": {\n\
    \    \"hold_ops\": %d,\n\
    \    \"hold_pending\": %d,\n\
    \    \"runs\": %d,\n\
    \    \"eheap_events_per_sec\": { \"median\": %.0f, \"q1\": %.0f, \"q3\": %.0f },\n\
    \    \"engine_events_per_sec\": { \"median\": %.0f, \"q1\": %.0f, \"q3\": %.0f }\n\
    \  }\n\
     }\n"
    (host_json ()) (List.length grid) seq_wall jobs_par par_wall parallel_meaningful
    (if parallel_meaningful then Printf.sprintf "%.2f" speedup else "null")
    identical hold_ops hold_fill hold_runs eheap_med eheap_q1 eheap_q3 engine_med engine_q1
    engine_q3;
  close_out oc;
  Printf.printf "  wrote BENCH_sweep.json\n%!"
