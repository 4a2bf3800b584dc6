(* Differential tests for the fault-injection plane (DESIGN.md §4d).

   Three contracts pinned here:

   1. Determinism: a fault schedule is a pure function of (seed, rate).
      Two runs of the same workload with the same injector config must
      produce bit-identical protocol fingerprints AND bit-identical
      injector counters — no host-dependent state leaks into the plane.

   2. Idle plane ≡ no plane: with rate 0.0 the injector is attached but
      must never consume its RNG stream, so the run reproduces the
      pinned goldens from test_golden.ml exactly, byte for byte, and
      reports zero injected faults.

   3. No partial completion: under heavy injection (dropped IPIs,
      aborted transfers, module outages) every recovery path must leave
      the protocol in a state indistinguishable from a fault-free one —
      random operation sequences against the sequential-consistency
      oracle, with the PR 3 invariant monitor armed.  The monitor's
      per-target shootdown completion and stale-translation checks are
      the oracle for "retried fully or not at all". *)

module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Inject = Platinum_sim.Inject
module Check = Platinum_core.Check
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Policy = Platinum_core.Policy
module Rights = Platinum_core.Rights
module Outcome = Platinum_workload.Outcome
module Jacobi = Platinum_workload.Jacobi
module Backprop = Platinum_workload.Backprop

let qtest = QCheck_alcotest.to_alcotest

(* Same shape as test_golden.ml: completion time, timed phase, protocol
   counters. *)
let fingerprint ~(out : Outcome.t) (r : Runner.result) =
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Printf.sprintf
    "elapsed=%d work=%d rf=%d wf=%d vm=%d repl=%d migr=%d rmap=%d freeze=%d thaw=%d sd=%d atc=%d"
    r.Runner.elapsed out.Outcome.work_ns c.Counters.read_faults c.Counters.write_faults
    c.Counters.vm_faults c.Counters.replications c.Counters.migrations c.Counters.remote_maps
    c.Counters.freezes c.Counters.thaws c.Counters.shootdowns c.Counters.atc_reloads

(* One injected run with the monitor armed; returns the protocol
   fingerprint, the injector's counter fingerprint, and the fault count. *)
let run_injected ~seed ~rate (out, main) =
  let config = Config.butterfly_plus ~nprocs:4 () in
  let setup = Runner.make ~config ~inject:(Inject.config ~seed ~rate ()) () in
  Coherent.set_monitor setup.Runner.coherent (Some (Check.create_monitor ()));
  let r = Runner.run setup ~main in
  if not out.Outcome.ok then Alcotest.fail ("workload self-check: " ^ out.Outcome.detail);
  let inj =
    match Machine.inject setup.Runner.machine with Some i -> i | None -> assert false
  in
  (fingerprint ~out r, Inject.fingerprint inj, Inject.faults_injected inj)

(* --- 1. differential determinism --- *)

let test_deterministic_replay () =
  let jacobi () = Jacobi.make (Jacobi.params ~n:32 ~iters:4 ~nprocs:4 ()) in
  let fp1, inj1, faults1 = run_injected ~seed:7L ~rate:0.05 (jacobi ()) in
  let fp2, inj2, faults2 = run_injected ~seed:7L ~rate:0.05 (jacobi ()) in
  Alcotest.(check bool) "the schedule actually injected faults" true (faults1 > 0);
  Alcotest.(check string) "protocol fingerprint replays" fp1 fp2;
  Alcotest.(check string) "injector counters replay" inj1 inj2;
  Alcotest.(check int) "fault count replays" faults1 faults2

let test_different_seed_diverges () =
  (* Not a strict requirement of the plane, but if two seeds gave the
     same schedule the differential suite would be vacuous. *)
  let jacobi () = Jacobi.make (Jacobi.params ~n:32 ~iters:4 ~nprocs:4 ()) in
  let _, inj1, _ = run_injected ~seed:7L ~rate:0.05 (jacobi ()) in
  let _, inj2, _ = run_injected ~seed:8L ~rate:0.05 (jacobi ()) in
  Alcotest.(check bool) "seeds 7 and 8 draw different schedules" true (inj1 <> inj2)

(* --- 2. rate 0.0 reproduces the goldens exactly --- *)

let check_idle_plane ~what ~expected (out, main) =
  let fp, _, faults = run_injected ~seed:99L ~rate:0.0 (out, main) in
  Alcotest.(check int) (what ^ ": idle plane injects nothing") 0 faults;
  Alcotest.(check string) (what ^ ": matches the fault-free golden") expected fp

let test_rate0_jacobi_golden () =
  check_idle_plane ~what:"jacobi 4 procs (bulk)"
    ~expected:
      "elapsed=34069320 work=22948840 rf=5 wf=13 vm=3 repl=2 migr=2 rmap=9 freeze=3 thaw=0 \
       sd=4 atc=0"
    (Jacobi.make (Jacobi.params ~n:32 ~iters:4 ~nprocs:4 ()))

let test_rate0_backprop_golden () =
  check_idle_plane ~what:"backprop 4 procs (bulk)"
    ~expected:
      "elapsed=10109400 work=4087000 rf=5 wf=7 vm=2 repl=1 migr=1 rmap=6 freeze=2 thaw=0 \
       sd=3 atc=0"
    (Backprop.make
       (Backprop.params ~units:16 ~patterns:2 ~epochs:1 ~settle_steps:1 ~nprocs:4 ()))

(* --- 3. random ops under heavy injection: SC + invariants survive --- *)

(* A small direct-Coherent system in the style of Check.Mc, with an
   injection plane attached to the machine and the monitor armed. *)
type sys = {
  coh : Coherent.t;
  cm : Platinum_core.Cmap.t;
  expected : int array;  (* sequential-consistency oracle, per page *)
}

let nprocs = 4
let npages = 3
let page_words = 4

let mk_sys ~seed ~rate =
  let config = Config.butterfly_plus ~nprocs ~page_words () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let machine = Machine.create config in
  Machine.set_inject machine (Some (Inject.create (Inject.config ~seed ~rate ())));
  let engine = Engine.create () in
  let coh = Coherent.create machine ~engine ~policy ~frames_per_module:8 () in
  Coherent.set_monitor coh (Some (Check.create_monitor ()));
  let cm = Coherent.new_aspace coh in
  for vpage = 0 to npages - 1 do
    let page = Coherent.new_cpage coh ~label:(Printf.sprintf "soak%d" vpage) () in
    Coherent.bind coh cm ~vpage page Rights.Read_write
  done;
  { coh; cm; expected = Array.make npages 0 }

(* Ops are generated as (kind, proc, page) triples so QCheck can shrink
   them. *)
let apply sys (kind, proc, page) =
  let vaddr = page * page_words in
  match kind with
  | 0 ->
    let v, _ = Coherent.read_word sys.coh ~now:0 ~proc ~cmap:sys.cm ~vaddr in
    if v <> sys.expected.(page) then
      QCheck.Test.fail_reportf "SC violation: R%d(p%d) = %d, last write was %d" proc page v
        sys.expected.(page)
  | 1 ->
    ignore (Coherent.write_word sys.coh ~now:0 ~proc ~cmap:sys.cm ~vaddr (proc + 1));
    sys.expected.(page) <- proc + 1
  | 2 -> ignore (Coherent.advise sys.coh ~now:0 ~proc:0 ~cmap:sys.cm ~vpage:page Coherent.Freeze)
  | 3 -> ignore (Coherent.advise sys.coh ~now:0 ~proc:0 ~cmap:sys.cm ~vpage:page Coherent.Thaw)
  | _ -> Coherent.thaw_all sys.coh ~now:0

let op_gen =
  QCheck.(triple (int_bound 4) (int_bound (nprocs - 1)) (int_bound (npages - 1)))

(* Any fault schedule, any op sequence: every shootdown either completes
   (all target refmask bits and ATC entries cleared — the armed monitor
   checks each one) or is fully retried; reads always see the last write;
   the final state passes the machine-wide invariant sweep.  A partial
   shootdown surfaces as a Check.Violation or an SC failure here. *)
let prop_injected_ops_sound =
  QCheck.Test.make ~name:"soak: random ops under heavy injection keep SC + invariants"
    ~count:60
    QCheck.(pair small_int (list_of_size Gen.(1 -- 25) op_gen))
    (fun (seed, ops) ->
      let sys = mk_sys ~seed:(Int64.of_int (seed + 1)) ~rate:0.9 in
      (try List.iter (apply sys) ops
       with Check.Violation v ->
         QCheck.Test.fail_reportf "monitor violation: %s" (Check.violation_message v));
      match Coherent.check_invariants sys.coh with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "post-run invariants: %s" e)

(* The same property with the plane idle must also hold (guards against
   the test passing only because injection perturbs nothing). *)
let prop_idle_ops_sound =
  QCheck.Test.make ~name:"soak: random ops with idle plane keep SC + invariants" ~count:30
    QCheck.(list_of_size Gen.(1 -- 25) op_gen)
    (fun ops ->
      let sys = mk_sys ~seed:1L ~rate:0.0 in
      List.iter (apply sys) ops;
      match Coherent.check_invariants sys.coh with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "post-run invariants: %s" e)

let suite =
  [
    ("soak: same (seed,rate) replays bit-identically", `Quick, test_deterministic_replay);
    ("soak: different seeds draw different schedules", `Quick, test_different_seed_diverges);
    ("soak: rate 0.0 reproduces jacobi golden", `Quick, test_rate0_jacobi_golden);
    ("soak: rate 0.0 reproduces backprop golden", `Quick, test_rate0_backprop_golden);
    qtest prop_injected_ops_sound;
    qtest prop_idle_ops_sound;
  ]
