(* The serving subsystem (Platinum_serve): histograms against a sort-based
   oracle, ring transport edge cases, RPC edge cases, and the differential
   determinism contract of the serve workload — same seed, same bytes,
   across reruns, parallelism widths and an idle fault plane. *)

module Runner = Platinum_runner.Runner
module Par = Platinum_runner.Par
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Coherent = Platinum_core.Coherent
module Check = Platinum_core.Check
module Shootdown = Platinum_core.Shootdown
module Inject = Platinum_sim.Inject
module Arrivals = Platinum_sim.Arrivals
module Rng = Platinum_sim.Rng
module Hist = Platinum_stats.Hist
module Api = Platinum_kernel.Api
module Memsys = Platinum_kernel.Memsys
module Rpc = Platinum_kernel.Rpc
module Fastpath = Platinum_kernel.Fastpath
module Serve = Platinum_serve.Serve
module Ring = Platinum_serve.Ring
module Mesh = Platinum_scale.Mesh
module Parkernel = Platinum_scale.Parkernel

let qtest = QCheck_alcotest.to_alcotest

(* --- histograms vs the sort-based oracle --- *)

(* The oracle: percentile q of n samples is the ceil(q*n)-th smallest.
   The histogram returns the inclusive upper bound of that sample's bin,
   so it may only ever over-report, and by at most the bin width at that
   value ([equivalent_range]). *)
let oracle_percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  sorted.(rank - 1)

let arb_samples =
  QCheck.(
    pair (int_range 1 14)
      (list_of_size Gen.(int_range 1 400) (int_range 0 3_000_000)))

(* The width of the bin [v] falls in at [precision_bits]: exact below
   2^p, then 2^(significant bits - p). *)
let bin_width ~precision_bits v =
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  if v < 1 lsl precision_bits then 1 else 1 lsl (bits v - precision_bits)

let prop_percentile_oracle =
  QCheck.Test.make ~name:"percentiles within one bin of the sort oracle" ~count:300
    arb_samples
    (fun (precision_bits, samples) ->
      let h = Hist.create ~precision_bits () in
      List.iter (Hist.record h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      List.for_all
        (fun q ->
          let want = oracle_percentile sorted q in
          let got = Hist.percentile h q in
          if got < want then
            QCheck.Test.fail_reportf "p%.3f under-reported: oracle %d, hist %d" q want got;
          if got - want > bin_width ~precision_bits want then
            QCheck.Test.fail_reportf
              "p%.3f off by more than a bin: oracle %d, hist %d, bin width %d" q want got
              (bin_width ~precision_bits want);
          true)
        [ 0.01; 0.5; 0.9; 0.95; 0.99; 0.999; 1.0 ])

let prop_merge_is_concat =
  QCheck.Test.make ~name:"merge(a,b) ≡ recording the concatenation" ~count:300
    QCheck.(pair (list (int_range 0 1_000_000)) (list (int_range 0 1_000_000)))
    (fun (a, b) ->
      let ha = Hist.create () and hb = Hist.create () and hc = Hist.create () in
      List.iter (Hist.record ha) a;
      List.iter (Hist.record hb) b;
      List.iter (Hist.record hc) (a @ b);
      Hist.merge ~into:ha hb;
      Hist.fingerprint ha = Hist.fingerprint hc
      && Hist.count ha = Hist.count hc
      && Hist.p50 ha = Hist.p50 hc
      && Hist.p999 ha = Hist.p999 hc)

let prop_count_total_exact =
  QCheck.Test.make ~name:"count/total/min/max are exact" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 1_000_000))
    (fun samples ->
      let h = Hist.create ~precision_bits:3 () in
      List.iter (Hist.record h) samples;
      Hist.count h = List.length samples
      && Hist.total h = List.fold_left ( + ) 0 samples
      && Hist.min_value h = List.fold_left min max_int samples
      && Hist.max_value h = List.fold_left max 0 samples)

(* Steady-state [record] must allocate nothing: the serve hot path calls
   it per completed request.  The measurement itself costs a bounded
   number of words (the two boxed floats), so calibrate that first and
   require the burst to add nothing on top. *)
let test_record_zero_alloc () =
  let h = Hist.create () in
  for i = 1 to 1_000 do
    Hist.record h (i * 17)
  done;
  let calib0 = Gc.minor_words () in
  let calib1 = Gc.minor_words () in
  let overhead = calib1 -. calib0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Hist.record h ((i * 1_103_515_245) land 0x3fffffff)
  done;
  let w1 = Gc.minor_words () in
  let spent = w1 -. w0 -. overhead in
  Alcotest.(check bool)
    (Printf.sprintf "10k records allocate 0 words beyond measurement (%.0f)" spent)
    true (spent <= 0.0)

let test_hist_edges () =
  let h = Hist.create () in
  Alcotest.(check int) "empty p99" 0 (Hist.p99 h);
  Alcotest.(check int) "empty max" 0 (Hist.max_value h);
  Alcotest.(check int) "empty min" max_int (Hist.min_value h);
  Hist.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Hist.max_value h);
  Hist.record_n h 1_000 3;
  Alcotest.(check int) "record_n counts" 4 (Hist.count h);
  Alcotest.(check int) "q >= 1 is the exact max" 1_000 (Hist.percentile h 1.5);
  let coarse = Hist.create ~precision_bits:2 () in
  Alcotest.check_raises "merge precision mismatch rejected"
    (Invalid_argument "Hist.merge: precision mismatch (2 vs 7)") (fun () ->
      Hist.merge ~into:coarse h)

(* --- arrivals --- *)

let prop_arrivals_deterministic =
  QCheck.Test.make ~name:"arrival schedule is a pure function of the seed" ~count:50
    QCheck.(pair (int_range 1 10_000) bool)
    (fun (seed, bursty) ->
      let process =
        if bursty then
          Arrivals.Mmpp { low_rps = 500.0; high_rps = 4_000.0; dwell_ns = 1_000_000 }
        else Arrivals.Poisson { rate_rps = 2_000.0 }
      in
      let draw () =
        let g = Arrivals.create ~rng:(Rng.create (Int64.of_int seed)) process in
        List.init 200 (fun _ -> Arrivals.next_gap_ns g)
      in
      let a = draw () and b = draw () in
      a = b && List.for_all (fun gap -> gap >= 1) a)

(* --- ring transport edge cases --- *)

(* A full ring must block the producer (backpressure), never drop: a slow
   consumer still receives every request in order, and the claimed-but-
   unconsumed count never exceeds capacity. *)
let test_ring_backpressure () =
  let got = ref [] in
  let max_pending = ref 0 in
  let producer_done = ref 0 in
  Runner.time ~frames_per_module:64 (fun () ->
      let r = Ring.create ~slots:2 ~slot_words:1 () in
      let producer =
        Api.spawn ~proc:1 (fun () ->
            for i = 1 to 8 do
              Ring.push r [| i * 11 |]
            done;
            producer_done := Api.now ())
      in
      for _ = 1 to 8 do
        Api.sleep 50_000;
        max_pending := max !max_pending (Ring.pending r);
        let msg = Ring.pop r in
        got := msg.(0) :: !got
      done;
      Api.join producer)
  |> ignore;
  Alcotest.(check (list int))
    "all 8 requests, in order, none lost"
    (List.init 8 (fun i -> (8 - i) * 11))
    !got;
  (* Claimed-but-unconsumed may exceed capacity by the one producer
     blocked in the backpressure poll — never by more. *)
  Alcotest.(check bool)
    (Printf.sprintf "pending bounded by capacity + blocked producer (max %d)" !max_pending)
    true
    (!max_pending <= 2 + 1);
  (* The producer had no sleeps of its own: finishing this late proves the
     full ring actually blocked it until the consumer drained slots. *)
  Alcotest.(check bool)
    (Printf.sprintf "producer was backpressured until the 6th pop (done at %d ns)"
       !producer_done)
    true
    (!producer_done >= 6 * 50_000)

(* Wraparound keeps FIFO: with a 4-slot ring lapped many times by racing
   producers, each producer's stream still pops in its own order, and the
   claim order is globally respected. *)
let test_ring_wraparound_fifo () =
  let per = 12 in
  let last_seen = [| 0; 0 |] in
  let total = ref 0 in
  Runner.time ~frames_per_module:64 (fun () ->
      let r = Ring.create ~slots:4 ~slot_words:2 () in
      let producer p =
        Api.spawn ~proc:(p + 1) (fun () ->
            for seq = 1 to per do
              Ring.push r [| p; seq |];
              Api.sleep 3_000
            done)
      in
      let p0 = producer 0 and p1 = producer 1 in
      for _ = 1 to 2 * per do
        let msg = Ring.pop r in
        let p = msg.(0) and seq = msg.(1) in
        Alcotest.(check bool)
          (Printf.sprintf "producer %d seq %d after %d" p seq last_seen.(p))
          true
          (seq = last_seen.(p) + 1);
        last_seen.(p) <- seq;
        incr total
      done;
      Api.join p0;
      Api.join p1)
  |> ignore;
  Alcotest.(check int) "every request consumed exactly once" (2 * per) !total

(* Freezing the ring's pages mid-stream must not corrupt traffic: the
   values flow on (through remote word ops), and the coalescing fast path
   declines the now-frozen pages. *)
let test_ring_freeze_midstream () =
  let c = Fastpath.ctx () in
  let got = ref [] in
  let frozen_stats = ref (0, 0) in
  Runner.time ~frames_per_module:64 (fun () ->
      let r = Ring.create ~slots:4 ~slot_words:1 () in
      let producer =
        Api.spawn ~proc:1 (fun () ->
            for i = 1 to 4 do
              Ring.push r [| i |]
            done;
            Api.sleep 200_000;
            for i = 5 to 8 do
              Ring.push r [| i |]
            done)
      in
      for _ = 1 to 4 do
        got := (Ring.pop r).(0) :: !got
      done;
      (* Mid-stream: freeze every ring page, then keep serving. *)
      Api.advise (Ring.base r) (Ring.words r) Memsys.Freeze;
      Fastpath.reset_stats c;
      for _ = 5 to 8 do
        got := (Ring.pop r).(0) :: !got
      done;
      let st = Fastpath.stats c in
      frozen_stats := (st.Fastpath.coalesced, st.Fastpath.fallbacks);
      Api.join producer)
  |> ignore;
  Alcotest.(check (list int)) "values intact across the freeze"
    (List.init 8 (fun i -> 8 - i))
    !got;
  let coalesced, fallbacks = !frozen_stats in
  Alcotest.(check int) "frozen ring pages: zero words coalesced" 0 coalesced;
  Alcotest.(check bool)
    (Printf.sprintf "frozen ring pages: fallbacks taken (%d)" fallbacks)
    true (fallbacks > 0)

(* Same scenario with the coherence sanitizer armed: the monitor must stay
   silent (any invariant violation raises and fails the test). *)
let test_ring_freeze_monitor_silent () =
  let setup = Runner.make ~frames_per_module:64 () in
  Coherent.set_monitor setup.Runner.coherent (Some (Check.create_monitor ()));
  let sum = ref 0 in
  Runner.run setup ~main:(fun () ->
      let r = Ring.create ~slots:4 ~slot_words:1 () in
      let producer =
        Api.spawn ~proc:1 (fun () ->
            for i = 1 to 10 do
              Ring.push r [| i |]
            done)
      in
      for k = 1 to 10 do
        sum := !sum + (Ring.pop r).(0);
        if k = 5 then Api.advise (Ring.base r) (Ring.words r) Memsys.Freeze
      done;
      Api.join producer)
  |> ignore;
  Alcotest.(check int) "all values under the monitor" 55 !sum

let test_ring_validation () =
  Runner.time ~frames_per_module:64 (fun () ->
      Alcotest.check_raises "slots must be positive"
        (Invalid_argument "Ring.create: slots must be positive") (fun () ->
          ignore (Ring.create ~slots:0 ~slot_words:1 ()));
      let r = Ring.create ~slots:2 ~slot_words:2 () in
      Alcotest.check_raises "payload arity enforced"
        (Invalid_argument "Ring.push: payload 1 words, ring slots carry 2") (fun () ->
          Ring.push r [| 1 |]))
  |> ignore

(* --- RPC edge cases --- *)

let test_rpc_zero_and_max_payload () =
  Runner.time (fun () ->
      let server =
        Rpc.serve ~proc:1 (fun args -> Array.append [| Array.length args |] args)
      in
      (* Zero-length arguments round-trip as a 1-word reply. *)
      let r = Rpc.call server [||] in
      Alcotest.(check bool) "zero-length args served" true (r = [| 0 |]);
      (* A page-sized payload (the biggest any transport ships at once)
         survives verbatim. *)
      let big = Array.init (Api.page_words ()) (fun i -> (i * 7) + 1) in
      let r = Rpc.call server big in
      Alcotest.(check int) "max payload length" (Array.length big + 1) (Array.length r);
      Alcotest.(check int) "max payload echoed count" (Array.length big) r.(0);
      Alcotest.(check bool) "max payload echoed verbatim" true
        (Array.for_all2 (fun a b -> a = b) big (Array.sub r 1 (Array.length big)));
      Rpc.shutdown server)
  |> ignore

let test_rpc_many_concurrent_callers () =
  let callers = 8 and calls = 6 in
  let oks = ref 0 in
  Runner.time (fun () ->
      let server = Rpc.serve ~proc:1 (fun args -> [| (2 * args.(0)) + args.(1) |]) in
      let tids =
        List.init callers (fun c ->
            Api.spawn ~proc:(2 + (c mod 2)) (fun () ->
                for k = 1 to calls do
                  let r = Rpc.call server [| c; k |] in
                  if r = [| (2 * c) + k |] then incr oks
                done))
      in
      List.iter Api.join tids;
      Rpc.shutdown server)
  |> ignore;
  Alcotest.(check int) "every concurrent call answered correctly" (callers * calls) !oks

(* 80% request loss: every call still completes (the plane's bounded
   adversary never drops the final attempt), and the recovery counters
   prove retransmission actually ran. *)
let test_rpc_heavy_loss () =
  let setup =
    Runner.make
      ~config:(Config.butterfly_plus ~nprocs:4 ())
      ~inject:(Inject.config ~seed:3L ~rate:0.8 ())
      ()
  in
  let oks = ref 0 in
  Runner.run setup ~main:(fun () ->
      let server = Rpc.serve ~proc:1 (fun args -> [| args.(0) + 1 |]) in
      for i = 1 to 20 do
        if Rpc.call server [| i |] = [| i + 1 |] then incr oks
      done;
      Rpc.shutdown server)
  |> ignore;
  let inj =
    match Machine.inject setup.Runner.machine with Some i -> i | None -> assert false
  in
  Alcotest.(check int) "all 20 calls completed under 80% loss" 20 !oks;
  let st = Inject.stats inj in
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions exercised (%d)" st.Inject.rpc_retries)
    true
    (st.Inject.rpc_retries > 0);
  Alcotest.(check bool) "recovery latency sampled" true
    (Array.length (Inject.recovery_samples inj) > 0)

(* --- serve workload determinism --- *)

let small_params =
  Serve.params ~tenants:2 ~clients_per_tenant:2 ~requests_per_client:6
    ~process:(Arrivals.Poisson { rate_rps = 5_000.0 }) ()

let fp ?inject ?seed transport =
  (Serve.run ?inject ?seed ~check:false small_params transport).Serve.fingerprint

let test_serve_rerun_identical () =
  List.iter
    (fun tr ->
      Alcotest.(check string)
        (Serve.transport_name tr ^ ": two runs at one seed are byte-identical")
        (fp ~seed:5L tr) (fp ~seed:5L tr))
    Serve.all_transports

let test_serve_idle_plane_identical () =
  List.iter
    (fun tr ->
      Alcotest.(check string)
        (Serve.transport_name tr ^ ": rate-0 plane ≡ no plane attached")
        (fp ~seed:5L tr)
        (fp ~seed:5L ~inject:(Inject.config ~seed:9L ~rate:0.0 ()) tr))
    Serve.all_transports

let test_serve_injected_deterministic () =
  List.iter
    (fun tr ->
      let run () = fp ~seed:5L ~inject:(Inject.config ~seed:9L ~rate:0.05 ()) tr in
      Alcotest.(check string)
        (Serve.transport_name tr ^ ": injected runs are byte-identical")
        (run ()) (run ()))
    Serve.all_transports

let prop_serve_seed_differential =
  QCheck.Test.make ~name:"serve fingerprint is a pure function of the seed" ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 0 2))
    (fun (seed, which) ->
      let tr = List.nth Serve.all_transports which in
      let seed = Int64.of_int seed in
      fp ~seed tr = fp ~seed tr)

let test_serve_completes_and_measures () =
  List.iter
    (fun tr ->
      let r = Serve.run ~seed:5L ~check:false small_params tr in
      let want = 2 * 2 * 6 in
      Alcotest.(check int) (r.Serve.transport ^ ": all submitted") want r.Serve.submitted;
      Alcotest.(check int) (r.Serve.transport ^ ": all completed") want r.Serve.completed;
      Alcotest.(check int) (r.Serve.transport ^ ": histogram holds every request") want
        (Hist.count r.Serve.hist);
      Alcotest.(check bool) (r.Serve.transport ^ ": tails ordered") true
        (r.Serve.p50_ns <= r.Serve.p95_ns
        && r.Serve.p95_ns <= r.Serve.p99_ns
        && r.Serve.p99_ns <= r.Serve.p999_ns
        && r.Serve.p999_ns <= Hist.max_value r.Serve.hist))
    Serve.all_transports

(* [~check:false] disarms the monitor even when PLATINUM_CHECK arms it.
   The observable is a planted fault: a shootdown that keeps its refmask
   bits.  The env-armed monitor stops the ring run at the sweep after that
   shootdown; disarmed, the run completes and only [Runner.run]'s
   machine-wide check after the run finds the fault.  An unset variable
   is restored as empty, which reads as unset. *)
let test_serve_check_false_disarms () =
  let old = Sys.getenv_opt "PLATINUM_CHECK" in
  let outcome check =
    match Serve.run ~seed:5L ?check small_params Serve.Ring with
    | _ -> "completed"
    | exception Platinum_kernel.Kernel.Thread_failure (Check.Violation _) -> "stopped mid-run"
    | exception Failure _ -> "found after the run"
  in
  Unix.putenv "PLATINUM_CHECK" "1";
  let armed, disarmed =
    Fun.protect
      ~finally:(fun () ->
        Shootdown.test_skip_refmask_clear := false;
        Unix.putenv "PLATINUM_CHECK" (Option.value old ~default:""))
      (fun () ->
        Shootdown.test_skip_refmask_clear := true;
        let armed = outcome None in
        (armed, outcome (Some false)))
  in
  Alcotest.(check string) "PLATINUM_CHECK=1" "stopped mid-run" armed;
  Alcotest.(check string) "~check:false" "found after the run" disarmed

(* The mesh serve program across -j(domains) {1,4} x shards {1,4}, clean
   and injected — the grid the issue pins, on top of test_parshard's wider
   sweep over every workload.  Every cell must also pass the rmw oracle. *)
let test_mesh_grid_identical () =
  let config = Config.hierarchical ~cluster_size:8 ~nodes:32 () in
  List.iter
    (fun inject_rate ->
      let cells =
        List.concat_map (fun s -> List.map (fun d -> (s, d)) [ 1; 4 ]) [ 1; 4 ]
      in
      let fps =
        List.map
          (fun (shards, domains) ->
            let r =
              (Mesh.run ~check:true ~shards ~domains ~inject_rate ~seed:13L ~ops_per_node:20
                 ~config Mesh.Serve)
                .Mesh.run
            in
            Alcotest.(check bool)
              (Printf.sprintf "mesh serve rmws atomic at rate %.2f, s=%d d=%d" inject_rate
                 shards domains)
              true r.Parkernel.verified;
            r.Parkernel.fingerprint)
          cells
      in
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "mesh serve identical at rate %.2f over -j/shards {1,4}"
               inject_rate)
            (List.hd fps) f)
        fps)
    [ 0.0; 0.02 ]

let suite =
  [
    Alcotest.test_case "hist: record allocates zero words" `Quick test_record_zero_alloc;
    Alcotest.test_case "hist: edges (empty, clamp, merge guard)" `Quick test_hist_edges;
    qtest prop_percentile_oracle;
    qtest prop_merge_is_concat;
    qtest prop_count_total_exact;
    qtest prop_arrivals_deterministic;
    Alcotest.test_case "ring: backpressure blocks, never drops" `Quick test_ring_backpressure;
    Alcotest.test_case "ring: wraparound keeps FIFO per producer" `Quick
      test_ring_wraparound_fifo;
    Alcotest.test_case "ring: mid-stream freeze falls back, values intact" `Quick
      test_ring_freeze_midstream;
    Alcotest.test_case "ring: frozen mid-stream under the monitor" `Quick
      test_ring_freeze_monitor_silent;
    Alcotest.test_case "ring: input validation" `Quick test_ring_validation;
    Alcotest.test_case "rpc: zero-length and page-sized payloads" `Quick
      test_rpc_zero_and_max_payload;
    Alcotest.test_case "rpc: many concurrent callers on one port" `Quick
      test_rpc_many_concurrent_callers;
    Alcotest.test_case "rpc: calls complete under 80% request loss" `Quick
      test_rpc_heavy_loss;
    Alcotest.test_case "serve: reruns byte-identical" `Quick test_serve_rerun_identical;
    Alcotest.test_case "serve: idle plane ≡ no plane" `Quick test_serve_idle_plane_identical;
    Alcotest.test_case "serve: injected runs deterministic" `Quick
      test_serve_injected_deterministic;
    Alcotest.test_case "serve: completes and measures every request" `Quick
      test_serve_completes_and_measures;
    Alcotest.test_case "serve: check:false disarms an env-armed monitor" `Quick
      test_serve_check_false_disarms;
    Alcotest.test_case "serve: mesh grid -j/shards {1,4} identical" `Quick
      test_mesh_grid_identical;
    qtest prop_serve_seed_differential;
  ]
