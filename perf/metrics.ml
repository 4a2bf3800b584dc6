(* The metric catalogue.  BENCHMARK.json carries the entries marked
   [listed], with the same names, units, directions and bounds; the smoke
   check fails if the two drift apart. *)

type better = Lower | Higher | Neither

type t = {
  name : string;
  unit : string;
  better : better;
  exact : bool;
      (* a simulated output or deterministic count: two runs of the same
         code must agree exactly, and a speed-only change must not move it *)
  bound : float;  (* end-to-end only: tolerated worsening, as a share of the median *)
  floor : float;
      (* end-to-end only: tolerated worsening in the metric's own unit,
         when that is more than [bound] of the median *)
  listed : bool;  (* listed in BENCHMARK.json *)
}

let e ?(listed = true) ?(floor = 0.0) name unit better bound =
  { name; unit; better; exact = false; bound; floor; listed }

(* A bound in BENCHMARK.json is a share of the baseline's median, so the
   file lists only metrics whose median is never 0.  [failed_frac] is 0 on
   every healthy run; the summary line carries the same facts in its
   [attempted] and [failed] fields.  Set-up takes 0.1-14 ms, where timer
   jitter alone exceeds a share of the median, hence its 2 ms floor. *)
let end_to_end =
  [
    e "wall_s" "s" Lower 0.25;
    e "setup_s" "s" Lower 0.25 ~floor:0.002;
    e "ops_per_s" "1/s" Higher 0.25;
    e "minor_words_per_op" "words/op" Lower 0.05;
    e "heap_peak_mb" "MB" Lower 0.10;
    e ~listed:false "failed_frac" "frac" Lower 0.0;
  ]

let host ?(listed = false) name unit better =
  { name; unit; better; exact = false; bound = 0.0; floor = 0.0; listed }

let exact ?(listed = false) name unit better =
  { name; unit; better; exact = true; bound = 0.0; floor = 0.0; listed }

(* The worsening [m] tolerates from a baseline median [base]. *)
let allowance m base = Float.max (m.bound *. Float.abs base) m.floor

(* Per-layer metrics, grouped by the lib/ directory they measure.  The
   listed subset is the isolated floors: they are the only layer metrics
   that every workload reports and that are never 0.  The rest are
   reported only by the workloads that reach them, and some are 0 on
   others (a stencil has no shard windows, the hosted run never enters
   the fast path). *)
let per_layer =
  [
    host "kernel.self_s" "s" Lower;
    exact "kernel.context_switches" "count" Neither;
    exact "kernel.fastpath.runs" "count" Neither;
    exact "kernel.fastpath.fallbacks" "count" Lower;
    exact "kernel.fastpath.coalesce_frac" "frac" Higher;
    exact "core.submit.calls" "count" Neither;
    host "core.submit_s" "s" Lower;
    host "core.submit.ns_per_call" "ns" Lower;
    exact "core.submit.words_per_call" "words/call" Neither;
    host "core.submit.minor_words_per_call" "words/call" Lower;
    exact "core.fastpath.calls" "count" Neither;
    host "core.fastpath_s" "s" Lower;
    host "core.fastpath.ns_per_call" "ns" Lower;
    exact "core.fastpath.hit_frac" "frac" Higher;
    exact "core.read_faults" "count" Neither;
    exact "core.write_faults" "count" Neither;
    exact "core.replications" "count" Neither;
    exact "core.migrations" "count" Neither;
    exact "core.remote_maps" "count" Neither;
    exact "core.freezes" "count" Neither;
    exact "core.thaws" "count" Neither;
    exact "core.shootdowns" "count" Neither;
    exact "core.interrupts" "count" Neither;
    exact "core.atc_reloads" "count" Neither;
    exact "core.fault_sim_ns" "sim_ns" Neither;
    exact "core.copy_sim_ns" "sim_ns" Neither;
    host ~listed:true "core.steady_hit_floor_ns" "ns" Lower;
    exact "machine.module_requests" "count" Neither;
    exact "machine.module_busy_sim_ns" "sim_ns" Neither;
    exact "machine.module_wait_sim_ns" "sim_ns" Neither;
    exact "machine.max_module_util" "frac" Neither;
    exact "machine.ipis" "count" Neither;
    host ~listed:true "machine.xbar_floor_ns" "ns" Lower;
    exact "sim.events" "count" Neither;
    host "sim.host_ns_per_event" "ns" Lower;
    host ~listed:true "sim.engine_floor_ns_per_event" "ns" Lower;
    exact "sim.shard.windows" "count" Lower;
    exact "sim.shard.events_per_window" "events/window" Higher;
    host ~listed:true "sim.shard.window_floor_ns" "ns" Lower;
    host "sim.shard.window_floor_share" "frac" Lower;
    host "sim.shard.speedup_2dom" "x" Higher;
    exact "scale.reads" "count" Neither;
    exact "scale.writes" "count" Neither;
    exact "scale.replications" "count" Neither;
    exact "scale.invalidations" "count" Neither;
    exact "scale.shootdowns" "count" Neither;
    exact "scale.ipis" "count" Neither;
    exact "scale.retries" "count" Neither;
    exact "scale.words" "count" Neither;
    exact "scale.touched_pages" "count" Neither;
    exact "serve.completed" "count" Neither;
    exact "serve.retries" "count" Neither;
    exact "serve.p50_sim_ns" "sim_ns" Neither;
    exact "serve.p99_sim_ns" "sim_ns" Neither;
    exact "serve.p999_sim_ns" "sim_ns" Neither;
    exact "serve.achieved_rps_sim" "1/sim_s" Neither;
    host "runner.verify_s" "s" Lower;
    exact "model.sim_ns" "sim_ns" Neither;
    host "trace.overhead_frac" "frac" Lower;
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher" | Neither -> "neither"
