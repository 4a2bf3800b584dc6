(* Soak/differential harness for the fault-injection plane (DESIGN.md
   section 4d).

   The plane (Platinum_sim.Inject) makes the simulated hardware
   adversarial — module stalls and outages, lost/delayed shootdown IPIs,
   lost RPC requests, aborted block transfers — and the kernel recovers
   with timeouts, bounded exponential-backoff retries, and (past the block
   transfer retry bound) freeze-in-place degradation.  This experiment is
   the proof that recovery is *correct*, not merely that it terminates:

   1. Soak grid: every workload (jacobi, gauss_mp, backprop, mergesort,
      plus an RPC echo exercising retransmission) x a seed grid, run with
      injection on and the PR 3 invariant monitor armed.  Every cell must
      finish with its self-verification intact and zero Check.Violations.

   2. Differential determinism: every cell is run twice with the same
      (seed, rate), the second time with the monitor disarmed; the
      protocol fingerprint and the injector's own counters must be
      bit-identical — a fault schedule is a pure function of (seed,
      rate), and the monitor never changes the run it watches.

   3. Recovery-path coverage gates (the mutation-style check: a soak that
      never exercised a retry or the degradation path proves nothing):
      across the grid there must be >= 1 injected fault, >= 1 recovery
      retry and >= 1 freeze-in-place degradation, or the experiment exits
      1.

   Emits BENCH_soak.json: faults injected, retries by kind, and the
   recovery extra-latency distribution. *)

module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Coherent = Platinum_core.Coherent
module Check = Platinum_core.Check
module Counters = Platinum_core.Counters
module Inject = Platinum_sim.Inject
module Frame = Platinum_phys.Frame
module Outcome = Platinum_workload.Outcome
module Jacobi = Platinum_workload.Jacobi
module Gauss_mp = Platinum_workload.Gauss_mp
module Backprop = Platinum_workload.Backprop
module Mergesort = Platinum_workload.Mergesort
module Kernel = Platinum_kernel.Kernel
module Rpc = Platinum_kernel.Rpc
module Api = Platinum_kernel.Api

let failed = ref false

let check what ok =
  if not ok then begin
    failed := true;
    Printf.printf "SOAK_FAIL %s\n%!" what
  end

(* Same shape as the golden tests' fingerprint: completion time, timed
   phase, protocol counters. *)
let fingerprint ~(out : Outcome.t) (r : Runner.result) =
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Printf.sprintf
    "elapsed=%d work=%d rf=%d wf=%d vm=%d repl=%d migr=%d rmap=%d freeze=%d thaw=%d sd=%d atc=%d"
    r.Runner.elapsed out.Outcome.work_ns c.Counters.read_faults c.Counters.write_faults
    c.Counters.vm_faults c.Counters.replications c.Counters.migrations c.Counters.remote_maps
    c.Counters.freezes c.Counters.thaws c.Counters.shootdowns c.Counters.atc_reloads

(* A small RPC ping-pong: the only path that exercises client-side
   retransmission.  Self-verifies every reply. *)
let rpc_echo ~calls () =
  let out = Outcome.create () in
  let main () =
    let server = Rpc.serve ~proc:1 (fun args -> Array.map (fun x -> (2 * x) + 1) args) in
    let t0 = Api.now () in
    for i = 1 to calls do
      let r = Rpc.call server [| i; i + 7 |] in
      Outcome.require out
        (Array.length r = 2 && r.(0) = (2 * i) + 1 && r.(1) = (2 * (i + 7)) + 1)
        "rpc echo: wrong reply for call %d" i
    done;
    out.Outcome.work_ns <- Api.now () - t0;
    Rpc.shutdown server
  in
  (out, main)

let workloads =
  [
    ("jacobi", fun () -> Jacobi.make (Jacobi.params ~n:32 ~iters:4 ~nprocs:4 ()));
    ("gauss_mp", fun () -> Gauss_mp.make (Gauss_mp.params ~n:24 ~nprocs:4 ()));
    ( "backprop",
      fun () ->
        Backprop.make
          (Backprop.params ~units:16 ~patterns:2 ~epochs:1 ~settle_steps:1 ~nprocs:4 ()) );
    ("mergesort", fun () -> Mergesort.make (Mergesort.params ~n:2048 ~nprocs:4 ()));
    ("rpc_echo", fun () -> rpc_echo ~calls:12 ());
  ]

type cell = {
  c_label : string;
  c_seed : int64;
  c_rate : float;
  c_fp : string;  (* protocol fingerprint *)
  c_inj : string;  (* injector counter fingerprint *)
  c_faults : int;
  c_retries : int;
  c_degraded : int;
  c_samples : int array;
  c_error : string option;  (* violation or failure; None = clean *)
}

(* One injected run, with the invariant monitor armed or, whatever
   PLATINUM_CHECK says, disarmed.  Any violation (a Check.Violation or a
   Frame.Shared_write, raised mid-protocol or surfacing through a thread
   failure) or workload self-verification failure is captured, not
   propagated: the grid always completes and reports. *)
let run_cell ~monitored (label, wl) ~seed ~rate =
  let out, main = wl () in
  let config = Config.butterfly_plus ~nprocs:4 () in
  let setup = Runner.make ~config ~inject:(Inject.config ~seed ~rate ()) () in
  Coherent.set_monitor setup.Runner.coherent
    (if monitored then Some (Check.create_monitor ()) else None);
  let inj =
    match Machine.inject setup.Runner.machine with Some i -> i | None -> assert false
  in
  let finish error fp =
    {
      c_label = label;
      c_seed = seed;
      c_rate = rate;
      c_fp = fp;
      c_inj = Inject.fingerprint inj;
      c_faults = Inject.faults_injected inj;
      c_retries = Inject.retries inj;
      c_degraded = (Inject.stats inj).Inject.degraded_freezes;
      c_samples = Inject.recovery_samples inj;
      c_error = error;
    }
  in
  match Runner.run setup ~main with
  | r ->
    let error =
      if out.Outcome.ok then None
      else Some ("workload verification failed: " ^ out.Outcome.detail)
    in
    finish error (fingerprint ~out r)
  | exception Check.Violation v -> finish (Some (Check.violation_message v)) "<violation>"
  | exception Kernel.Thread_failure (Check.Violation v) ->
    finish (Some (Check.violation_message v)) "<violation>"
  | exception (Frame.Shared_write _ as e | Kernel.Thread_failure (Frame.Shared_write _ as e)) ->
    finish (Some (Printexc.to_string e)) "<violation>"
  | exception e -> finish (Some (Printexc.to_string e)) "<failure>"

let percentile sorted p =
  if Array.length sorted = 0 then 0
  else begin
    let n = Array.length sorted in
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))
  end

let run (scale : Exp_common.scale) =
  Exp_common.section
    "soak: every workload correct, deterministic and violation-free under fault injection";
  let seeds =
    if scale.Exp_common.full then [ 1L; 2L; 3L; 4L; 5L; 6L ] else [ 1L; 2L; 3L ]
  in
  (* Three fault regimes: the soak rate exercises stalls/outages and the
     occasional IPI/RPC fault; the storm rate makes drops and repeated
     block-transfer aborts (hence freeze-in-place degradation) likely. *)
  let soak_rate = 0.02 and storm_rate = 0.8 in
  let grid =
    List.concat_map
      (fun wl -> List.map (fun seed -> (wl, seed, soak_rate)) seeds)
      workloads
    @ (* degradation/retry storm: jacobi moves pages, rpc retransmits *)
    List.concat_map
      (fun name ->
        let wl = List.find (fun (n, _) -> n = name) workloads in
        List.map (fun seed -> (wl, seed, storm_rate)) [ 1L; 2L ])
      [ "jacobi"; "rpc_echo" ]
  in
  (* Differential: each cell twice, same (seed, rate), monitored then not. *)
  let results =
    Exp_common.par_map
      (fun (wl, seed, rate) ->
        (run_cell ~monitored:true wl ~seed ~rate, run_cell ~monitored:false wl ~seed ~rate))
      grid
  in
  Exp_common.subsection "grid (each cell run twice; fingerprints must agree)";
  Printf.printf "  %-10s %5s %5s  %-9s %7s %8s %9s\n" "workload" "seed" "rate" "determ."
    "faults" "retries" "degraded";
  List.iter
    (fun (a, b) ->
      let deterministic = a.c_fp = b.c_fp && a.c_inj = b.c_inj in
      Printf.printf "  %-10s %5Ld %5.2f  %-9s %7d %8d %9d\n" a.c_label a.c_seed a.c_rate
        (if deterministic then "identical" else "DIVERGED")
        a.c_faults a.c_retries a.c_degraded;
      Printf.printf "    protocol %s\n    injector %s\n" a.c_fp a.c_inj;
      check
        (Printf.sprintf "%s seed=%Ld rate=%.2f: deterministic replay, monitored = unmonitored"
           a.c_label a.c_seed a.c_rate)
        deterministic;
      List.iter
        (fun e ->
          check (Printf.sprintf "%s seed=%Ld rate=%.2f: %s" a.c_label a.c_seed a.c_rate e) false)
        (List.sort_uniq compare (List.filter_map (fun c -> c.c_error) [ a; b ])))
    results;
  let firsts = List.map fst results in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 firsts in
  let faults = total (fun c -> c.c_faults) in
  let retries = total (fun c -> c.c_retries) in
  let degraded = total (fun c -> c.c_degraded) in
  let samples = Array.concat (List.map (fun c -> c.c_samples) firsts) in
  Array.sort compare samples;
  Exp_common.subsection "recovery-path coverage (a soak that faulted nothing proves nothing)";
  Printf.printf "  cells=%d (x2 runs)  faults=%d  retries=%d  freeze_degradations=%d\n"
    (List.length results) faults retries degraded;
  check "injected >= 1 fault" (faults > 0);
  check "exercised >= 1 recovery retry" (retries > 0);
  check "exercised >= 1 freeze-in-place degradation" (degraded > 0);
  let n = Array.length samples in
  let p50 = percentile samples 0.50 and p95 = percentile samples 0.95 in
  if n > 0 then
    Printf.printf "  recovery extra latency (ns): n=%d min=%d p50=%d p95=%d max=%d\n" n
      samples.(0) p50 p95 samples.(n - 1);
  let oc = open_out "BENCH_soak.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"soak\",\n\
    \  \"host\": %s,\n\
    \  \"cells\": %d,\n\
    \  \"seeds\": %d,\n\
    \  \"soak_rate\": %.3f,\n\
    \  \"storm_rate\": %.3f,\n\
    \  \"faults_injected\": %d,\n\
    \  \"retries\": %d,\n\
    \  \"freeze_degradations\": %d,\n\
    \  \"recovery_ns\": { \"n\": %d, \"min\": %d, \"p50\": %d, \"p95\": %d, \"max\": %d }\n\
     }\n"
    (Exp_common.host_json ()) (List.length results) (List.length seeds) soak_rate storm_rate
    faults retries degraded n
    (if n = 0 then 0 else samples.(0))
    p50 p95
    (if n = 0 then 0 else samples.(n - 1));
  close_out oc;
  Printf.printf "  wrote BENCH_soak.json\n%!";
  if !failed then exit 1;
  Printf.printf "SOAK_OK\n%!"
