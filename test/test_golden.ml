(* Golden determinism tests for the batched-transaction refactor.

   The expectations below were recorded from the pre-Memtxn seed tree.  The
   refactor moved every access path (word, block, strided) onto one batched
   transaction layer; its contract is that simulated cost never changes —
   only host wall-clock cost does.  These tests pin that contract: the same
   access stream must produce bit-identical simulated completion times and
   protocol counters through the new plumbing.

   Two groups:
   - the "seed" row replays Gauss, whose access stream the refactor left
     as it was, and must match the values recorded before the refactor,
     forever.
   - "bulk" rows pin Jacobi and Backprop, whose inner loops became block
     and strided transactions, so later changes can't silently change
     their simulated behaviour either.  Their expectations were recorded
     when the conversion landed.

   Plus qcheck properties that simultaneous Engine events fire in FIFO
   (sequence) order, which is what makes any of this reproducible. *)

module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Counters = Platinum_core.Counters
module Coherent = Platinum_core.Coherent
module Engine = Platinum_sim.Engine
module Outcome = Platinum_workload.Outcome
module Gauss = Platinum_workload.Gauss
module Jacobi = Platinum_workload.Jacobi
module Backprop = Platinum_workload.Backprop

let qtest = QCheck_alcotest.to_alcotest

(* One line captures everything we pin: completion time, the workload's own
   measure of its timed section, and the protocol counters. *)
let fingerprint ~(out : Outcome.t) (r : Runner.result) =
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Printf.sprintf
    "elapsed=%d work=%d rf=%d wf=%d vm=%d repl=%d migr=%d rmap=%d freeze=%d thaw=%d sd=%d atc=%d"
    r.Runner.elapsed out.Outcome.work_ns c.Counters.read_faults c.Counters.write_faults
    c.Counters.vm_faults c.Counters.replications c.Counters.migrations c.Counters.remote_maps
    c.Counters.freezes c.Counters.thaws c.Counters.shootdowns c.Counters.atc_reloads

let check_run ~what ~expected ~nprocs (out, main) =
  let config = Config.butterfly_plus ~nprocs () in
  let r = Runner.time ~config main in
  if not out.Outcome.ok then Alcotest.fail (what ^ ": " ^ out.Outcome.detail);
  Alcotest.(check string) what expected (fingerprint ~out r)

(* --- the seed-identical run (recorded before the refactor) --- *)

let test_gauss_seed () =
  check_run ~what:"gauss 12 procs" ~nprocs:12
    ~expected:
      "elapsed=637842400 work=623841880 rf=653 wf=69 vm=65 repl=645 migr=0 rmap=11 freeze=1 \
       thaw=0 sd=65 atc=0"
    (Gauss.make (Gauss.params ~n:64 ~nprocs:12 ()))

(* --- bulk-mode runs (recorded when the conversion landed) ---

   Batching changes when each processor claims a memory module (one event
   per transaction instead of interleaved per-word events), so contended
   runs legitimately time differently from the old per-word stream; these
   rows pin the converted workloads' own determinism. *)

let test_jacobi_bulk () =
  check_run ~what:"jacobi 4 procs (bulk)" ~nprocs:4
    ~expected:
      "elapsed=34069320 work=22948840 rf=5 wf=13 vm=3 repl=2 migr=2 rmap=9 freeze=3 thaw=0 \
       sd=4 atc=0"
    (Jacobi.make (Jacobi.params ~n:32 ~iters:4 ~nprocs:4 ()))

let test_backprop_bulk () =
  check_run ~what:"backprop 4 procs (bulk)" ~nprocs:4
    ~expected:
      "elapsed=10109400 work=4087000 rf=5 wf=7 vm=2 repl=1 migr=1 rmap=6 freeze=2 thaw=0 \
       sd=3 atc=0"
    (Backprop.make
       (Backprop.params ~units:16 ~patterns:2 ~epochs:1 ~settle_steps:1 ~nprocs:4 ()))

(* --- engine FIFO properties --- *)

(* Events scheduled for the same instant fire in scheduling order. *)
let prop_engine_fifo_same_time =
  QCheck.Test.make ~name:"simultaneous events fire in seq order" ~count:200
    QCheck.(int_bound 200)
    (fun n ->
      let e = Engine.create () in
      let fired = ref [] in
      for i = 0 to n do
        Engine.schedule_at e ~at:42 (fun () -> fired := i :: !fired)
      done;
      Engine.run e;
      List.rev !fired = List.init (n + 1) Fun.id)

(* Mixed times: stable sort by time; ties keep scheduling order. *)
let prop_engine_fifo_mixed =
  QCheck.Test.make ~name:"equal-time events keep FIFO order under interleaving" ~count:200
    QCheck.(list (int_bound 20))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri (fun i t -> Engine.schedule_at e ~at:t (fun () -> fired := (t, i) :: !fired)) times;
      Engine.run e;
      let got = List.rev !fired in
      let expect = List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) (List.mapi (fun i t -> (t, i)) times) in
      got = expect)

(* Events scheduled from inside a handler for the current instant still run
   after everything already queued for that instant. *)
let prop_engine_fifo_nested =
  QCheck.Test.make ~name:"events scheduled mid-instant run after earlier peers" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let e = Engine.create () in
      let fired = ref [] in
      Engine.schedule_at e ~at:7 (fun () ->
          fired := "first" :: !fired;
          for _ = 1 to n do
            Engine.schedule_after e ~delay:0 (fun () -> fired := "nested" :: !fired)
          done);
      Engine.schedule_at e ~at:7 (fun () -> fired := "second" :: !fired);
      Engine.run e;
      match List.rev !fired with
      | "first" :: "second" :: rest -> List.length rest = n && List.for_all (( = ) "nested") rest
      | _ -> false)

let suite =
  [
    ("golden: gauss (12 procs) matches the seed", `Quick, test_gauss_seed);
    ("golden: jacobi bulk stream is pinned", `Quick, test_jacobi_bulk);
    ("golden: backprop bulk stream is pinned", `Quick, test_backprop_bulk);
    qtest prop_engine_fifo_same_time;
    qtest prop_engine_fifo_mixed;
    qtest prop_engine_fifo_nested;
  ]
