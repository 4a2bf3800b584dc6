(* Tests for the coalescing effect-boundary fast path (DESIGN.md §4g).

   The contract under test: with coalescing on (the default), every
   program observes exactly what it observes with coalescing off — same
   values, same elapsed virtual time, same Counters, same injection
   schedule — because a coalesced word performs the identical cache and
   interconnect simulation, just without the per-word suspend.  The
   differential here runs random access programs both ways and compares
   full fingerprints; the unit tests pin the live-state eligibility
   checks of the backend's hit cores, the allocation budgets of a
   multi-page stream and of arming across backends, the mandatory
   fallbacks (frozen page, pending injected fault), an armed monitor
   watching the same coalesced run as an unmonitored one, and a rate-0
   fault plane passing every word as if there were none. *)

module Api = Platinum_kernel.Api
module Fastpath = Platinum_kernel.Fastpath
module Memsys = Platinum_kernel.Memsys
module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Inject = Platinum_sim.Inject
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Counters = Platinum_core.Counters
module Cmap = Platinum_core.Cmap
module Cpage = Platinum_core.Cpage
module Rights = Platinum_core.Rights
module Policy = Platinum_core.Policy
module Check = Platinum_core.Check
module Shootdown = Platinum_core.Shootdown

let qtest = QCheck_alcotest.to_alcotest

let fingerprint (r : Runner.result) =
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Printf.sprintf
    "elapsed=%d rf=%d wf=%d vm=%d repl=%d migr=%d rmap=%d freeze=%d thaw=%d sd=%d msg=%d \
     int=%d def=%d zf=%d atc=%d fault_ns=%d copy_ns=%d"
    r.Runner.elapsed c.Counters.read_faults c.Counters.write_faults c.Counters.vm_faults
    c.Counters.replications c.Counters.migrations c.Counters.remote_maps c.Counters.freezes
    c.Counters.thaws c.Counters.shootdowns c.Counters.messages c.Counters.interrupts
    c.Counters.deferred_updates c.Counters.zero_fills c.Counters.atc_reloads
    c.Counters.fault_ns c.Counters.copy_ns

(* --- the differential: coalesce on ≡ coalesce off --- *)

(* A random access program over a two-page buffer: word reads, writes,
   rmws and block transfers from two threads (proc 0 and proc 1) sharing
   the buffer, so the stream crosses replications, write-fault
   retractions and freezes.  Interleaved kernel services — reading the
   clock, computing, sleeping, yielding, asking for the thread id — close
   the coalescing window at every kind of effect boundary, so a handler
   arm that skips the batched charge shows up as a different clock
   reading or elapsed time.  Ops are encoded as ints so the same list
   replays identically on both runs. *)
type op =
  | Read of int
  | Write of int * int
  | Rmw of int
  | Block_read of int * int
  | Block_write of int * int
  | Now
  | Compute of int
  | Sleep of int
  | Yield
  | Self

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun o -> Read o) (int_bound 255));
        (4, map2 (fun o v -> Write (o, v)) (int_bound 255) (int_bound 9999));
        (2, map (fun o -> Rmw o) (int_bound 255));
        (1, map2 (fun o l -> Block_read (o, 1 + l)) (int_bound 200) (int_bound 40));
        (1, map2 (fun o l -> Block_write (o, 1 + l)) (int_bound 200) (int_bound 40));
        (1, return Now);
        (1, map (fun n -> Compute (1 + n)) (int_bound 2000));
        (1, map (fun n -> Sleep (1 + n)) (int_bound 2000));
        (1, return Yield);
        (1, return Self);
      ])

let show_op = function
  | Read o -> Printf.sprintf "R%d" o
  | Write (o, v) -> Printf.sprintf "W%d=%d" o v
  | Rmw o -> Printf.sprintf "M%d" o
  | Block_read (o, l) -> Printf.sprintf "BR%d+%d" o l
  | Block_write (o, l) -> Printf.sprintf "BW%d+%d" o l
  | Now -> "T"
  | Compute n -> Printf.sprintf "C%d" n
  | Sleep n -> Printf.sprintf "S%d" n
  | Yield -> "Y"
  | Self -> "I"

let arb_prog = QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 1 60) gen_op)

(* Run [prog] on proc 0 while proc 1 replays it reversed (same shared
   buffer, different order: real cross-processor protocol traffic).
   Returns (observed values, fingerprint). *)
let run_prog ~coalesce prog =
  let observed = ref [] in
  let note v = observed := v :: !observed in
  let run_ops buf ops =
    List.iter
      (fun op ->
        match op with
        | Read o -> note (Api.read (buf + o))
        | Write (o, v) -> Api.write (buf + o) v
        | Rmw o -> note (Api.rmw (buf + o) (fun v -> v + 1))
        | Block_read (o, l) -> Array.iter note (Api.block_read (buf + o) l)
        | Block_write (o, l) -> Api.block_write (buf + o) (Array.init l (fun i -> o + i))
        | Now -> note (Api.now ())
        | Compute n -> Api.compute n
        | Sleep n -> Api.sleep n
        | Yield -> Api.yield ()
        | Self -> note (Api.self ()))
      ops
  in
  let config = Config.butterfly_plus ~nprocs:2 () in
  let r =
    Runner.time ~config ~frames_per_module:64 ~coalesce (fun () ->
        let buf = Api.alloc ~page_aligned:true 512 in
        run_ops buf prog;
        let t = Api.spawn ~proc:1 (fun () -> run_ops buf (List.rev prog)) in
        Api.join t;
        run_ops buf prog)
  in
  (List.rev !observed, fingerprint r)

let prop_differential =
  QCheck.Test.make ~name:"coalesce on ≡ off: values, elapsed, Counters" ~count:60 arb_prog
    (fun prog ->
      let vals_on, fp_on = run_prog ~coalesce:true prog in
      let vals_off, fp_off = run_prog ~coalesce:false prog in
      if vals_on <> vals_off then QCheck.Test.fail_report "observed values differ";
      if fp_on <> fp_off then
        QCheck.Test.fail_reportf "fingerprints differ:\n  on:  %s\n  off: %s" fp_on fp_off;
      true)

(* The coalescer must actually engage on the kind of stream it exists
   for — otherwise the differential above is vacuous. *)
let test_coalescer_engages () =
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  let r =
    Runner.time ~frames_per_module:64 (fun () ->
        let buf = Api.alloc ~page_aligned:true 1024 in
        for i = 0 to 1023 do
          Api.write (buf + i) i
        done;
        let sum = ref 0 in
        for i = 0 to 1023 do
          sum := !sum + Api.read (buf + i)
        done;
        Alcotest.(check int) "sum of 0..1023" (1023 * 1024 / 2) !sum)
  in
  ignore r;
  let st = Fastpath.stats c in
  Alcotest.(check bool)
    (Printf.sprintf "most words coalesced (got %d)" st.Fastpath.coalesced)
    true
    (st.Fastpath.coalesced > 1500);
  Alcotest.(check bool) "runs closed" true (st.Fastpath.runs > 0)

let test_disabled_never_engages () =
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  Runner.time ~frames_per_module:64 ~coalesce:false (fun () ->
      let buf = Api.alloc ~page_aligned:true 256 in
      for i = 0 to 255 do
        Api.write (buf + i) i
      done)
  |> ignore;
  let st = Fastpath.stats c in
  Alcotest.(check int) "no words coalesced with coalesce:false" 0 st.Fastpath.coalesced

(* A six-word page is not a power of two, so every page split on the word
   paths — Fastpath's and Coherent's — takes the divide.  Word reads,
   writes and rmws stride across page boundaries on two processors; every
   value read must match a host-side model of the memory, both ways. *)
let run_odd_pages ~coalesce =
  let words = 60 in
  let model = Array.make words 0 in
  let mismatches = ref 0 in
  let expect v a = if v <> model.(a) then incr mismatches in
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:6 () in
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  let r =
    Runner.time ~config ~frames_per_module:64 ~coalesce (fun () ->
        Alcotest.(check int) "page size" 6 (Api.page_words ());
        let buf = Api.alloc ~page_aligned:true words in
        let pass () =
          for a = 0 to words - 1 do
            Api.write (buf + a) (a * a);
            model.(a) <- a * a
          done;
          for i = 0 to 199 do
            let a = ((i * 7) + 3) mod words in
            match i mod 3 with
            | 0 ->
              Api.write (buf + a) (i * 13);
              model.(a) <- i * 13
            | 1 -> expect (Api.read (buf + a)) a
            | _ ->
              expect (Api.rmw (buf + a) (fun v -> v + 5)) a;
              model.(a) <- model.(a) + 5
          done;
          for a = words - 1 downto 0 do
            expect (Api.read (buf + a)) a
          done
        in
        pass ();
        Api.join (Api.spawn ~proc:1 pass);
        pass ())
  in
  (!mismatches, fingerprint r, (Fastpath.stats c).Fastpath.coalesced)

let test_odd_page_size () =
  let bad_on, fp_on, coalesced_on = run_odd_pages ~coalesce:true in
  let bad_off, fp_off, coalesced_off = run_odd_pages ~coalesce:false in
  Alcotest.(check int) "values match the model, coalescing on" 0 bad_on;
  Alcotest.(check int) "values match the model, coalescing off" 0 bad_off;
  Alcotest.(check string) "same fingerprint on and off" fp_off fp_on;
  Alcotest.(check bool)
    (Printf.sprintf "words coalesced (got %d)" coalesced_on)
    true (coalesced_on > 500);
  Alcotest.(check int) "nothing coalesced off" 0 coalesced_off

(* --- eligibility from live state --- *)

let mk_coherent () =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:16 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
    ~frames_per_module:64 ()

(* The hit cores decide every word from live state, so each transition
   that once had to invalidate a cached verdict — freeze, unbind, replica
   retraction — makes them decline on the very next call, and a thaw or a
   re-fault makes them accept again.  Arming the monitor is no such
   transition: a clean hit is still accepted, and the transitions after
   it run under the monitor's sweeps. *)
let test_cores_check_live_state () =
  let coh = mk_coherent () in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  (* Steps further apart than the t1 window: no re-fault freezes. *)
  let now = ref 0 in
  let tick () =
    now := !now + 20_000_000;
    !now
  in
  let read ~proc = Coherent.fp_read coh ~now:(tick ()) ~proc ~cmap:cm ~vpage:0 ~vaddr:3 in
  let write ~proc = Coherent.fp_write coh ~now:(tick ()) ~proc ~cmap:cm ~vpage:0 ~vaddr:3 9 in
  let expect what ~proc accepted =
    Alcotest.(check bool) (what ^ ": read accepted") accepted (read ~proc >= 0);
    Alcotest.(check bool) (what ^ ": write accepted") accepted (write ~proc >= 0)
  in
  let fault_in ~proc =
    ignore (Coherent.submit coh ~now:(tick ()) ~proc ~cmap:cm (Memtxn.Write { vaddr = 3; value = 1 }))
  in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  ignore (Coherent.activate coh ~now:0 ~proc:0 ~aspace:(Cmap.aspace cm));
  expect "unmapped" ~proc:0 false;
  fault_in ~proc:0;
  expect "faulted in" ~proc:0 true;
  Coherent.freeze_page coh ~now:(tick ()) page;
  Alcotest.(check bool) "the page froze" true page.Cpage.frozen;
  expect "frozen" ~proc:0 false;
  Coherent.thaw_page coh ~now:(tick ()) ~by_daemon:false page;
  fault_in ~proc:0;
  expect "thawed and re-faulted" ~proc:0 true;
  Coherent.set_monitor coh (Some (Check.create_monitor ()));
  expect "monitor armed" ~proc:0 true;
  ignore (Coherent.unbind coh ~now:(tick ()) cm ~vpage:0);
  expect "unbound" ~proc:0 false;
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  fault_in ~proc:0;
  expect "rebound and re-faulted" ~proc:0 true;
  (* Both processors read: the page replicates.  A write fault on proc 0
     retracts proc 1's replica. *)
  ignore (Coherent.activate coh ~now:(tick ()) ~proc:1 ~aspace:(Cmap.aspace cm));
  ignore (Word.read coh ~now:(tick ()) ~proc:0 ~cmap:cm ~vaddr:3);
  ignore (Word.read coh ~now:(tick ()) ~proc:1 ~cmap:cm ~vaddr:3);
  Alcotest.(check bool) "replica read accepted" true (read ~proc:1 >= 0);
  fault_in ~proc:0;
  Alcotest.(check bool) "retracted replica: read declined" false (read ~proc:1 >= 0);
  ignore (Word.read coh ~now:(tick ()) ~proc:1 ~cmap:cm ~vaddr:3);
  Alcotest.(check bool) "re-faulted replica: read accepted" true (read ~proc:1 >= 0)

(* A stencil row cycles over three consecutive pages, word by word.  The
   coalescer keeps no per-page state, so the stream's steady state
   allocates nothing per word whichever page it is on. *)
let test_three_page_stream_allocation () =
  let per_word = ref infinity in
  Runner.time ~frames_per_module:64 (fun () ->
      let pw = Api.page_words () in
      let buf = Api.alloc ~page_aligned:true (3 * pw) in
      let sweep () =
        let sum = ref 0 in
        for i = 0 to pw - 1 do
          sum := !sum + Api.read (buf + i) + Api.read (buf + pw + i) + Api.read (buf + (2 * pw) + i)
        done;
        !sum
      in
      ignore (sweep ());
      let sweeps = 8 in
      let m0 = Gc.minor_words () in
      for _ = 1 to sweeps do
        ignore (sweep ())
      done;
      let m1 = Gc.minor_words () in
      per_word := (m1 -. m0) /. float_of_int (sweeps * 3 * pw))
  |> ignore;
  Alcotest.(check bool)
    (Printf.sprintf "at most 0.5 minor words per word (got %.3f)" !per_word)
    true (!per_word <= 0.5)

(* --- mandatory fallbacks mid-stream --- *)

(* Freezing a page mid-stream (Api.advise is itself an effect, so it
   settles the in-flight run) must push subsequent accesses to that page
   onto the full-suspend path — and the values must stay correct. *)
let test_freeze_forces_fallback () =
  let c = Fastpath.ctx () in
  let pw = ref 0 in
  Runner.time ~frames_per_module:64 (fun () ->
      pw := Api.page_words ();
      let buf = Api.alloc ~page_aligned:true !pw in
      for i = 0 to !pw - 1 do
        Api.write (buf + i) i
      done;
      Api.advise buf !pw Memsys.Freeze;
      Fastpath.reset_stats c;
      (* Writes to a frozen page are ineligible: every one falls back. *)
      for i = 0 to !pw - 1 do
        Api.write (buf + i) (2 * i)
      done;
      let st = Fastpath.stats c in
      Alcotest.(check int) "frozen page: zero words coalesced" 0 st.Fastpath.coalesced;
      Alcotest.(check bool) "frozen page: fallbacks taken" true (st.Fastpath.fallbacks >= !pw);
      (* Thaw: the page becomes eligible again. *)
      Api.advise buf !pw Memsys.Thaw;
      Fastpath.reset_stats c;
      let sum = ref 0 in
      for i = 0 to !pw - 1 do
        sum := !sum + Api.read (buf + i)
      done;
      Alcotest.(check int) "values written through the frozen window" (!pw * (!pw - 1)) !sum;
      let st = Fastpath.stats c in
      Alcotest.(check bool) "thawed page coalesces again" true (st.Fastpath.coalesced > 0))
  |> ignore

(* --- composition with the sanitizer and the fault plane (§4g) --- *)

(* One two-processor stack.  Without [rate] no fault plane is attached;
   [monitor] arms or disarms the invariant monitor, and without it
   PLATINUM_CHECK decides.  [prog out] is the main thread; it sums what
   it reads into [out]. *)
let run_stack ~coalesce ?rate ?monitor prog =
  let config = Config.butterfly_plus ~nprocs:2 () in
  let inject = Option.map (fun rate -> Inject.config ~seed:11L ~rate ()) rate in
  let setup =
    Runner.make ~config ~frames_per_module:64 ?inject ~coalesce ()
  in
  Option.iter
    (fun on ->
      Coherent.set_monitor setup.Runner.coherent
        (if on then Some (Check.create_monitor ()) else None))
    monitor;
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  let out = ref 0 in
  let r = Runner.run setup ~main:(prog out) in
  let st = Fastpath.stats c in
  ( !out,
    fingerprint r,
    (st.Fastpath.runs, st.Fastpath.coalesced, st.Fastpath.fallbacks),
    Machine.inject setup.Runner.machine )

(* Proc 0 writes two pages and sums them; proc 1 then writes one word of
   each page, which faults and shoots down proc 0's mappings; proc 0 sums
   again.  The sums coalesce, and the monitor has transitions to sweep
   between them. *)
let shared_stream out () =
  let pw = Api.page_words () in
  let buf = Api.alloc ~page_aligned:true (2 * pw) in
  let sum () =
    for i = 0 to (2 * pw) - 1 do
      out := !out + Api.read (buf + i)
    done
  in
  for i = 0 to (2 * pw) - 1 do
    Api.write (buf + i) i
  done;
  sum ();
  Api.join
    (Api.spawn ~proc:1 (fun () ->
         Api.write buf (-1);
         Api.write (buf + pw) (-1)));
  sum ()

(* A coalesced word is an ATC hit, and a hit is no protocol transition:
   the monitor sweeps at faults, advice, binds and shootdowns, none of
   which a coalesced word makes.  So the armed monitor watches the very
   run an unmonitored stack makes — the same words coalesce, with the
   same values, stats and fingerprint — and still catches a broken
   shootdown that lands in the middle of it. *)
let test_monitor_watches_coalesced_run () =
  let v_on, fp_on, st_on, _ = run_stack ~coalesce:true ~monitor:true shared_stream in
  let v_off, fp_off, st_off, _ = run_stack ~coalesce:true ~monitor:false shared_stream in
  let _, coalesced, _ = st_on in
  Alcotest.(check bool)
    (Printf.sprintf "words coalesced under the monitor (%d)" coalesced)
    true (coalesced > 1000);
  Alcotest.(check (triple int int int)) "Fastpath.stats identical" st_off st_on;
  Alcotest.(check int) "values identical" v_off v_on;
  Alcotest.(check string) "protocol fingerprint identical" fp_off fp_on;
  let c = Fastpath.ctx () in
  Fun.protect
    ~finally:(fun () -> Shootdown.test_skip_refmask_clear := false)
    (fun () ->
      Shootdown.test_skip_refmask_clear := true;
      match run_stack ~coalesce:true ~monitor:true shared_stream with
      | _ -> Alcotest.fail "a shootdown that keeps its refmask bits was not caught"
      | exception Platinum_kernel.Kernel.Thread_failure (Check.Violation v) ->
        Alcotest.(check string) "violated invariant" "refmask-pmap-agreement"
          v.Check.v_fault.Check.inv;
        Alcotest.(check bool) "words coalesced before the fault" true
          ((Fastpath.stats c).Fastpath.coalesced > 0))

(* Two workers write alternate words of one page, then each reads it all. *)
let interleaved out () =
  let buf = Api.alloc ~page_aligned:true 1024 in
  let worker me () =
    for i = 0 to 1023 do
      if i land 1 = me then Api.write (buf + i) (i + me)
    done;
    for i = 0 to 1023 do
      out := !out + Api.read (buf + i)
    done
  in
  let t = Api.spawn ~proc:1 (worker 1) in
  worker 0 ();
  Api.join t

(* One thread writes a buffer and sums it twice: after the first touch of
   each page every word is a clean hit, so the words coalesce. *)
let stream out () =
  let buf = Api.alloc ~page_aligned:true 1024 in
  for i = 0 to 1023 do
    Api.write (buf + i) i
  done;
  for _ = 1 to 2 do
    for i = 0 to 1023 do
      out := !out + Api.read (buf + i)
    done
  done

let plane = function Some i -> i | None -> Alcotest.fail "no fault plane attached"

(* [interleaved] coalesces no word (its page freezes); [stream] coalesces
   most of its words, so it checks the schedule across inline words too. *)
let injection_differential prog () =
  let v_on, fp_on, _, p_on = run_stack ~coalesce:true ~rate:0.02 prog in
  let v_off, fp_off, _, p_off = run_stack ~coalesce:false ~rate:0.02 prog in
  let inj_on = Inject.fingerprint (plane p_on) and faults_on = Inject.faults_injected (plane p_on) in
  let inj_off = Inject.fingerprint (plane p_off)
  and faults_off = Inject.faults_injected (plane p_off) in
  Alcotest.(check bool) "the schedule actually injected" true (faults_on > 0);
  Alcotest.(check int) "values identical under injection" v_off v_on;
  Alcotest.(check string) "protocol fingerprint identical" fp_off fp_on;
  Alcotest.(check string) "injector fingerprint identical" inj_off inj_on;
  Alcotest.(check int) "fault count identical" faults_off faults_on

(* A plane attached at rate 0 never injects, so the per-word injection
   gate passes every word: the values, the coalescer's stats and the
   protocol fingerprint equal a run with no plane at all. *)
let test_rate0_plane_is_no_plane () =
  let v0, fp0, st0, p0 = run_stack ~coalesce:true ~rate:0.0 stream in
  let v, fp, st, p = run_stack ~coalesce:true stream in
  Alcotest.(check int) "rate-0 plane injects nothing" 0 (Inject.faults_injected (plane p0));
  Alcotest.(check bool) "plain run has no plane" true (Option.is_none p);
  let _, coalesced, _ = st0 in
  Alcotest.(check bool)
    (Printf.sprintf "words coalesced under the plane (%d)" coalesced)
    true (coalesced > 1000);
  Alcotest.(check int) "values identical" v v0;
  Alcotest.(check string) "protocol fingerprint identical" fp fp0;
  Alcotest.(check (triple int int int)) "Fastpath.stats identical" st st0

(* A rate-1 plane injects at every module draw, so the per-word peek
   defers every word of [stream] to the full path, where its fault is
   handled: nothing coalesces, and the run is the coalescing-off run.  A
   coalescer that ignored the plane would drain the hits inline. *)
let test_rate1_plane_defers_every_word () =
  let v, fp, (_, coalesced, fallbacks), p = run_stack ~coalesce:true ~rate:1.0 stream in
  let v_off, fp_off, _, _ = run_stack ~coalesce:false ~rate:1.0 stream in
  Alcotest.(check bool) "the plane injected" true (Inject.faults_injected (plane p) > 0);
  Alcotest.(check int) "no word coalesced" 0 coalesced;
  Alcotest.(check bool) "every word declined" true (fallbacks >= 3 * 1024);
  Alcotest.(check int) "values" (2 * 1023 * 1024 / 2) v;
  Alcotest.(check int) "values as coalescing off" v_off v;
  Alcotest.(check string) "protocol fingerprint as coalescing off" fp_off fp

(* A live plane costs the coalesced stream no allocation: the per-word
   peek reads the next draw without copying the stream, and the draw each
   inline hit consumes at the interconnect boxes nothing.  One thread
   writes a page, then reads it 20 times under a 2% plane; the words the
   peek defers take the full path, and their cost is spread over the
   coalesced ones. *)
let test_live_plane_peek_allocation () =
  let c = Fastpath.ctx () in
  let coalesced = ref 0 and per_word = ref infinity in
  let passes out () =
    let buf = Api.alloc ~page_aligned:true 1024 in
    for i = 0 to 1023 do
      Api.write (buf + i) i
    done;
    let s0 = (Fastpath.stats c).Fastpath.coalesced in
    let m0 = Gc.minor_words () in
    for _ = 1 to 20 do
      for i = 0 to 1023 do
        out := !out + Api.read (buf + i)
      done
    done;
    let m1 = Gc.minor_words () in
    coalesced := (Fastpath.stats c).Fastpath.coalesced - s0;
    per_word := (m1 -. m0) /. float_of_int (max 1 !coalesced)
  in
  let _, _, _, p = run_stack ~coalesce:true ~rate:0.02 passes in
  Alcotest.(check bool) "the plane injected" true (Inject.faults_injected (plane p) > 0);
  Alcotest.(check bool)
    (Printf.sprintf "words coalesced under the plane (%d)" !coalesced)
    true (!coalesced > 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "at most 0.5 minor words per coalesced word (got %.3f)" !per_word)
    true (!per_word <= 0.5)

(* Arming against a different backend than the last arm — a new
   simulation reusing this domain — allocates nothing, so a handoff costs
   no more than a steady-state arm. *)
let test_arm_handoff_allocation () =
  let backend () =
    let m = Platinum_kernel.Kernel.memsys (Runner.make ()).Runner.kernel in
    match m.Memsys.fastpath with
    | Some ops -> (ops, m.Memsys.value)
    | None -> Alcotest.fail "Platsys exposes no fast path"
  in
  let ops_a, value_a = backend () and ops_b, value_b = backend () in
  Alcotest.(check bool) "two distinct backends" false (ops_a == ops_b);
  let c = Fastpath.ctx () in
  let arm ops value =
    Fastpath.arm c ops ~inject:None ~value ~base:0 ~proc:0 ~aspace:0 ~quantum_left:max_int
  in
  let n = 1_000 in
  let c0 = Gc.minor_words () in
  let c1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    arm ops_a value_a;
    arm ops_b value_b
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "armed" true (Fastpath.armed c);
  ignore (Fastpath.close c);
  Alcotest.(check int) "minor words over 2000 alternating arms" 0
    (int_of_float (w1 -. w0 -. (c1 -. c0)))

(* --- the hardened stride API (input validation) --- *)

let test_stride_validation () =
  Runner.time ~frames_per_module:64 (fun () ->
      let buf = Api.alloc ~page_aligned:true 64 in
      Alcotest.check_raises "write_stride: ragged data"
        (Invalid_argument "write_stride: data length 7 is not a multiple of elem_words 3")
        (fun () -> Api.write_stride ~elem_words:3 buf ~stride:4 (Array.make 7 0));
      Alcotest.check_raises "write_stride: elem_words 0"
        (Invalid_argument "write_stride: elem_words 0 must be positive") (fun () ->
          Api.write_stride ~elem_words:0 buf ~stride:4 [| 1 |]);
      Alcotest.check_raises "read_stride: negative count"
        (Invalid_argument "read_stride: negative count -2") (fun () ->
          ignore (Api.read_stride buf ~count:(-2) ~stride:4));
      Alcotest.check_raises "read_stride: elem_words -1"
        (Invalid_argument "read_stride: elem_words -1 must be positive") (fun () ->
          ignore (Api.read_stride ~elem_words:(-1) buf ~count:2 ~stride:4));
      (* A well-formed call still round-trips. *)
      Api.write_stride ~elem_words:2 buf ~stride:4 [| 1; 2; 3; 4 |];
      let back = Api.read_stride ~elem_words:2 buf ~count:2 ~stride:4 in
      Alcotest.(check (array int)) "stride round-trip" [| 1; 2; 3; 4 |] back)
  |> ignore

let suite =
  [
    qtest prop_differential;
    ("coalescer engages on a word stream", `Quick, test_coalescer_engages);
    ("coalesce:false never engages", `Quick, test_disabled_never_engages);
    ("six-word pages: values on and off", `Quick, test_odd_page_size);
    ("hit cores check live state", `Quick, test_cores_check_live_state);
    ("three-page word stream allocation", `Quick, test_three_page_stream_allocation);
    ("freeze/thaw force fallback mid-stream", `Quick, test_freeze_forces_fallback);
    ("armed monitor watches the coalesced run", `Quick, test_monitor_watches_coalesced_run);
    ("injection schedule identical on/off", `Quick, injection_differential interleaved);
    ("injection identical on/off: coalescing stream", `Quick, injection_differential stream);
    ("rate-0 plane behaves like no plane", `Quick, test_rate0_plane_is_no_plane);
    ("rate-1 plane defers every word", `Quick, test_rate1_plane_defers_every_word);
    ("live plane: coalesced words allocate nothing", `Quick, test_live_plane_peek_allocation);
    ("arm allocates nothing on a backend handoff", `Quick, test_arm_handoff_allocation);
    ("stride API rejects malformed input", `Quick, test_stride_validation);
  ]
