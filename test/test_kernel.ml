(* Tests for the kernel: threads, scheduling, migration, ports, and the
   user-level synchronization library. *)

module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync
module Kernel = Platinum_kernel.Kernel
module Runner = Platinum_runner.Runner
module Time_ns = Platinum_sim.Time_ns

(* Most tests run a tiny program on a full PLATINUM instance. *)
let run ?(nprocs = 4) main =
  let config = Platinum_machine.Config.butterfly_plus ~nprocs () in
  Runner.time ~config ~frames_per_module:64 ~default_zone_pages:32 main

let test_spawn_join () =
  let order = ref [] in
  let r =
    run (fun () ->
        let tid =
          Api.spawn ~proc:1 (fun () ->
              Api.compute 1000;
              order := "child" :: !order)
        in
        Api.join tid;
        order := "parent" :: !order)
  in
  Alcotest.(check (list string)) "join ordering" [ "child"; "parent" ] (List.rev !order);
  Alcotest.(check bool) "time advanced" true (r.Runner.elapsed > 0)

let test_join_finished_thread () =
  run (fun () ->
      let tid = Api.spawn (fun () -> ()) in
      Api.compute 10_000_000;
      (* The child is long gone; join must not hang. *)
      Api.join tid)
  |> ignore

let test_many_threads () =
  let hits = Array.make 16 0 in
  run ~nprocs:8 (fun () ->
      let tids =
        List.init 16 (fun i -> Api.spawn (fun () -> hits.(i) <- hits.(i) + 1))
      in
      List.iter Api.join tids)
  |> ignore;
  Alcotest.(check (array int)) "every thread ran once" (Array.make 16 1) hits

let test_self_and_proc () =
  run (fun () ->
      let tid = Api.spawn ~proc:2 (fun () ->
          Alcotest.(check int) "on requested processor" 2 (Api.my_proc ())) in
      Api.join tid;
      Alcotest.(check bool) "self is a valid tid" true (Api.self () >= 0))
  |> ignore

let test_compute_advances_clock () =
  let t = ref 0 in
  run (fun () ->
      let t0 = Api.now () in
      Api.compute 5_000_000;
      t := Api.now () - t0)
  |> ignore;
  Alcotest.(check int) "compute = elapsed" 5_000_000 !t

let test_migrate () =
  run (fun () ->
      let tid =
        Api.spawn ~proc:0 (fun () ->
            Alcotest.(check int) "before" 0 (Api.my_proc ());
            let t0 = Api.now () in
            Api.migrate 3;
            Alcotest.(check int) "after" 3 (Api.my_proc ());
            (* Migration pays for the kernel-stack block copy. *)
            Alcotest.(check bool) "costs time" true (Api.now () - t0 > 1_000_000))
      in
      Api.join tid)
  |> ignore

let test_threads_run_in_parallel () =
  (* Two 10 ms computations on different processors should overlap. *)
  let r =
    run (fun () ->
        let w () = Api.compute 10_000_000 in
        let t1 = Api.spawn ~proc:1 w in
        let t2 = Api.spawn ~proc:2 w in
        Api.join t1;
        Api.join t2)
  in
  Alcotest.(check bool) "parallel, not serial" true (r.Runner.elapsed < Time_ns.ms 19)

let test_timeslicing_same_proc () =
  (* Two long threads on ONE processor must interleave (quantum) and both
     finish. *)
  let done1 = ref false and done2 = ref false in
  run (fun () ->
      let w flag () =
        for _ = 1 to 10 do
          Api.compute 30_000_000
        done;
        flag := true
      in
      let t1 = Api.spawn ~proc:1 (w done1) in
      let t2 = Api.spawn ~proc:1 (w done2) in
      Api.join t1;
      Api.join t2)
  |> ignore;
  Alcotest.(check bool) "both finished" true (!done1 && !done2)

(* --- ports --- *)

let test_port_send_recv () =
  run (fun () ->
      let port = Api.new_port () in
      let t =
        Api.spawn ~proc:1 (fun () ->
            let m = Api.recv port in
            Alcotest.(check (array int)) "message intact" [| 1; 2; 3 |] m)
      in
      Api.send port [| 1; 2; 3 |];
      Api.join t)
  |> ignore

let test_port_blocking_recv () =
  (* The receiver blocks first; the sender wakes it. *)
  let got = ref [||] in
  run (fun () ->
      let port = Api.new_port () in
      let t = Api.spawn ~proc:1 (fun () -> got := Api.recv port) in
      Api.compute 5_000_000;
      Api.send port [| 42 |];
      Api.join t)
  |> ignore;
  Alcotest.(check (array int)) "woken with the message" [| 42 |] !got

let test_port_fifo () =
  let order = ref [] in
  run (fun () ->
      let port = Api.new_port () in
      for i = 1 to 5 do
        Api.send port [| i |]
      done;
      let t =
        Api.spawn ~proc:1 (fun () ->
            for _ = 1 to 5 do
              let m = Api.recv port in
              order := m.(0) :: !order
            done)
      in
      Api.join t)
  |> ignore;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_port_copies_messages () =
  run (fun () ->
      let port = Api.new_port () in
      let msg = [| 7 |] in
      Api.send port msg;
      msg.(0) <- 8 (* mutation after send must not affect the message *);
      let t = Api.spawn ~proc:1 (fun () ->
          Alcotest.(check (array int)) "copied on send" [| 7 |] (Api.recv port)) in
      Api.join t)
  |> ignore

let test_port_many_receivers () =
  let sum = ref 0 in
  run (fun () ->
      let port = Api.new_port () in
      let receivers =
        List.init 3 (fun i ->
            Api.spawn ~proc:(i + 1) (fun () ->
                let m = Api.recv port in
                sum := !sum + m.(0)))
      in
      Api.compute 1_000_000;
      for i = 1 to 3 do
        Api.send port [| i * 10 |]
      done;
      List.iter Api.join receivers)
  |> ignore;
  Alcotest.(check int) "all three delivered once" 60 !sum

(* --- deadlock detection --- *)

let test_deadlock_detected () =
  Alcotest.(check bool) "deadlock raises" true
    (try
       ignore
         (run (fun () ->
              let port = Api.new_port () in
              ignore (Api.recv port)));
       false
     with Kernel.Deadlock _ -> true)

let test_thread_failure_propagates () =
  Alcotest.(check bool) "failure surfaces" true
    (try
       ignore (run (fun () -> failwith "boom"));
       false
     with Kernel.Thread_failure (Failure msg) -> msg = "boom");
  (* The first failure halts the kernel: a thread polling for a word the
     failed thread would have written stops with it, not at its bound. *)
  let polls = ref 0 in
  Alcotest.(check bool) "a poller's peer fails" true
    (try
       ignore
         (run (fun () ->
              let flag = Api.alloc 1 in
              ignore
                (Api.spawn ~proc:1 (fun () ->
                     while Api.read flag = 0 && !polls < 100_000 do
                       incr polls;
                       Api.compute 1_000
                     done));
              Api.compute 10_000;
              failwith "boom"));
       false
     with Kernel.Thread_failure (Failure _) -> true);
  Alcotest.(check bool) (Printf.sprintf "the poller halted with it (%d polls)" !polls) true
    (!polls < 100)

(* Joining yourself can never complete: like any other invalid request
   it fails the caller at the call, rather than blocking it until the run
   ends in a deadlock report. *)
let test_self_join_fails_the_caller () =
  let caught = ref "" in
  run (fun () ->
      match Api.join (Api.self ()) with
      | () -> ()
      | exception Invalid_argument msg -> caught := msg)
  |> ignore;
  Alcotest.(check string) "raised at the call" "join: thread 0 joins itself" !caught

(* --- memory API --- *)

let test_read_write_roundtrip () =
  run (fun () ->
      let a = Api.alloc 4 in
      Api.write a 11;
      Api.write (a + 1) 22;
      Alcotest.(check int) "w0" 11 (Api.read a);
      Alcotest.(check int) "w1" 22 (Api.read (a + 1)))
  |> ignore

let test_block_roundtrip () =
  run (fun () ->
      let a = Api.alloc_pages 2 in
      let data = Array.init 100 (fun i -> i * 3) in
      Api.block_write a data;
      Alcotest.(check (array int)) "block round trip" data (Api.block_read a 100))
  |> ignore

let test_rmw_returns_old () =
  run (fun () ->
      let a = Api.alloc 1 in
      Api.write a 5;
      Alcotest.(check int) "old value" 5 (Api.rmw a (fun v -> v * 2));
      Alcotest.(check int) "new value" 10 (Api.read a))
  |> ignore

let test_zones_from_api () =
  run (fun () ->
      let z = Api.new_zone "private" ~pages:2 in
      let a = Api.alloc ~zone:z 4 in
      let b = Api.alloc 4 in
      Api.write a 1;
      Api.write b 2;
      Alcotest.(check bool) "zones give distinct pages" true
        (a / Api.page_words () <> b / Api.page_words ()))
  |> ignore

let test_page_words_exposed () =
  run (fun () -> Alcotest.(check int) "page words" 1024 (Api.page_words ())) |> ignore

(* --- address spaces and segments (§1.1) --- *)

let test_aspace_private_heaps () =
  (* The same allocation sequence in two spaces yields the same numeric
     addresses holding different data: the spaces are disjoint. *)
  let seen = ref (-1, -1) in
  run (fun () ->
      let other = Api.new_aspace () in
      let a0 = Api.alloc 4 in
      Api.write a0 111;
      let t =
        Api.spawn ~proc:1 ~aspace:other (fun () ->
            let z = Api.new_zone "mine" ~pages:1 in
            let a1 = Api.alloc ~zone:z 4 in
            Api.write a1 222;
            seen := (Api.read a1, Api.my_aspace ()))
      in
      Api.join t;
      Alcotest.(check int) "root space unchanged" 111 (Api.read a0))
  |> ignore;
  Alcotest.(check int) "child read its own data" 222 (fst !seen);
  Alcotest.(check bool) "child ran in the other space" true (snd !seen > 0)

let test_aspace_isolation () =
  (* An address bound only in the root space (here: a segment mapped
     beyond the heaps) is an address error in a fresh space. *)
  Alcotest.(check bool) "unbound access fails in the other space" true
    (try
       run (fun () ->
           let seg = Api.new_segment "rootonly" ~pages:1 in
           let a = Api.map_segment seg in
           Api.write a 5;
           let other = Api.new_aspace () in
           (* The fresh space never maps the segment. *)
           let t = Api.spawn ~proc:1 ~aspace:other (fun () -> ignore (Api.read a)) in
           Api.join t)
       |> ignore;
       false
     with Kernel.Thread_failure (Platinum_vm.Addr_space.Address_error _) -> true)

let test_segment_shared_across_spaces () =
  let got = ref 0 in
  run (fun () ->
      let seg = Api.new_segment "shared" ~pages:2 in
      let base_here = Api.map_segment seg in
      Api.block_write base_here (Array.init 32 (fun i -> i * 5));
      let other = Api.new_aspace () in
      let port = Api.new_port () in
      let t =
        Api.spawn ~proc:2 ~aspace:other (fun () ->
            let base_there = Api.map_segment seg in
            (* Same object, possibly a different virtual address. *)
            let data = Api.block_read base_there 32 in
            Api.send port [| data.(7) |])
      in
      let reply = Api.recv port in
      got := reply.(0);
      Api.join t)
  |> ignore;
  Alcotest.(check int) "the other space sees the object's data" 35 !got

let test_segment_coherent_across_spaces () =
  (* Write-sharing a segment across spaces drives the same protocol:
     the writer's updates invalidate the reader's replica. *)
  let final = ref 0 in
  run (fun () ->
      let seg = Api.new_segment "wshared" ~pages:1 in
      let here = Api.map_segment seg in
      let other = Api.new_aspace () in
      let start = Api.new_port () and done_ = Api.new_port () in
      let t =
        Api.spawn ~proc:3 ~aspace:other (fun () ->
            let there = Api.map_segment seg in
            ignore (Api.read there) (* replicate *);
            ignore (Api.recv start);
            final := Api.read there)
      in
      Api.write here 0;
      Api.compute 1_000_000;
      Api.write here 42 (* must shoot down the other space's mapping *);
      Api.send start [| 0 |];
      Api.join t;
      ignore done_)
  |> ignore;
  Alcotest.(check int) "cross-space coherence" 42 !final

(* --- sync library --- *)

let test_spinlock_mutual_exclusion () =
  let violations = ref 0 in
  run (fun () ->
      let lock = Sync.Spinlock.make () in
      let counter = Api.alloc 1 in
      let inside = ref false in
      let worker () =
        for _ = 1 to 10 do
          Sync.Spinlock.with_lock lock (fun () ->
              if !inside then incr violations;
              inside := true;
              (* Hold the lock across a memory operation. *)
              let v = Api.read counter in
              Api.compute 50_000;
              Api.write counter (v + 1);
              inside := false)
        done
      in
      let tids = List.init 4 (fun i -> Api.spawn ~proc:i worker) in
      List.iter Api.join tids;
      Alcotest.(check int) "all increments counted" 40 (Api.read counter))
  |> ignore;
  Alcotest.(check int) "no overlapping critical sections" 0 !violations

let test_event_count () =
  let seen = ref (-1) in
  run (fun () ->
      let ec = Sync.Event_count.make () in
      let waiter = Api.spawn ~proc:1 (fun () ->
          Sync.Event_count.await ec 3;
          seen := Sync.Event_count.current ec) in
      Api.compute 1_000_000;
      Sync.Event_count.advance ec;
      Api.compute 1_000_000;
      Sync.Event_count.advance ec;
      Api.compute 1_000_000;
      Sync.Event_count.advance ec;
      Api.join waiter)
  |> ignore;
  Alcotest.(check bool) "woke at or after 3" true (!seen >= 3)

let test_barrier () =
  let phase_log = ref [] in
  run ~nprocs:4 (fun () ->
      let b = Sync.Barrier.make ~parties:4 () in
      let worker me () =
        Api.compute (1_000_000 * (me + 1));
        phase_log := (1, me) :: !phase_log;
        Sync.Barrier.wait b;
        phase_log := (2, me) :: !phase_log;
        Sync.Barrier.wait b;
        phase_log := (3, me) :: !phase_log
      in
      Api.spawn_join_all ~procs:[ 0; 1; 2; 3 ] (List.init 4 (fun me _ -> worker me ())))
  |> ignore;
  (* No phase-2 entry may precede any phase-1 entry, etc. *)
  let entries = List.rev !phase_log in
  let max_phase_seen = ref 0 in
  let ok = ref true in
  List.iter
    (fun (phase, _) ->
      if phase < !max_phase_seen - 1 then ok := false;
      if phase > !max_phase_seen then max_phase_seen := phase)
    entries;
  Alcotest.(check bool) "phases globally ordered" true !ok;
  Alcotest.(check int) "all 12 entries" 12 (List.length entries)

let test_barrier_reusable () =
  run ~nprocs:2 (fun () ->
      let b = Sync.Barrier.make ~parties:2 () in
      let rounds = ref 0 in
      let worker _ =
        for _ = 1 to 5 do
          Sync.Barrier.wait b
        done;
        incr rounds
      in
      Api.spawn_join_all ~procs:[ 0; 1 ] [ worker; worker ];
      Alcotest.(check int) "both completed 5 rounds" 2 !rounds)
  |> ignore

let test_with_lock_releases_on_exn () =
  let reacquired = ref false in
  run (fun () ->
      let lock = Sync.Spinlock.make () in
      (try Sync.Spinlock.with_lock lock (fun () -> raise Exit) with Exit -> ());
      (* If the exception leaked the lock, this acquire spins forever and
         the kernel reports a deadlock instead. *)
      Sync.Spinlock.with_lock lock (fun () -> reacquired := true))
  |> ignore;
  Alcotest.(check bool) "lock released by the exception" true !reacquired

(* More threads than processors: contention plus timeslicing, no compute
   inside the critical section to keep the race window tight. *)
let test_spinlock_oversubscribed () =
  run (fun () ->
      let lock = Sync.Spinlock.make () in
      let counter = Api.alloc 1 in
      let worker () =
        for _ = 1 to 5 do
          Sync.Spinlock.with_lock lock (fun () ->
              Api.write counter (Api.read counter + 1))
        done
      in
      let tids = List.init 8 (fun i -> Api.spawn ~proc:(i mod 4) worker) in
      List.iter Api.join tids;
      Alcotest.(check int) "all 40 increments counted" 40 (Api.read counter))
  |> ignore

let test_event_count_multiple_waiters () =
  let woken = ref [] in
  run (fun () ->
      let ec = Sync.Event_count.make () in
      let waiter target =
        Api.spawn ~proc:(target mod 4) (fun () ->
            Sync.Event_count.await ec target;
            woken := target :: !woken)
      in
      let tids = List.map waiter [ 1; 2; 3 ] in
      for _ = 1 to 3 do
        Api.compute 500_000;
        Sync.Event_count.advance ec
      done;
      List.iter Api.join tids)
  |> ignore;
  (* Everyone wakes; a waiter for n never wakes before one for m < n has
     become runnable (the count is monotone), but scheduling may reorder
     the list — only membership is guaranteed. *)
  Alcotest.(check (list int)) "all waiters woke" [ 1; 2; 3 ] (List.sort compare !woken)

let test_barrier_invalid_parties () =
  run (fun () ->
      Alcotest.check_raises "parties must be positive"
        (Invalid_argument "Barrier.make: parties must be positive") (fun () ->
          ignore (Sync.Barrier.make ~parties:0 ())))
  |> ignore

(* Api.sleep parks the thread on a deferred engine event: virtual time
   advances without the processor being occupied. *)
let test_sleep_advances_clock () =
  let t0 = ref 0 and t1 = ref 0 in
  let r =
    run (fun () ->
        t0 := Api.now ();
        Api.sleep 1_000_000;
        t1 := Api.now ();
        Api.sleep 0 (* no-op, must not deadlock *))
  in
  Alcotest.(check bool) "slept at least 1 ms" true (!t1 - !t0 >= 1_000_000);
  Alcotest.(check bool) "run terminated" true (r.Runner.elapsed >= 1_000_000)

(* Host allocation of the trapped path (DESIGN.md §4g): a word access to
   a frozen page is never coalesced, so each one is a full effect trap,
   a kernel dispatch, a Platsys submit and an engine step.  Here the step
   is inline (Engine.advance_inline): the only other pending event is the
   defrost daemon's, far ahead, so no resume closure is built.  The block
   pair moves the whole page through reused slices: a steady-state block
   transaction allocates nothing between the submit and the frame copy
   (DESIGN.md §4a), leaving the effect trap.  The word comes back unboxed
   through the backend's value cell, and [now] has a stored handler, so
   each budget below is what the trap itself costs.  Minor words
   per operation are deterministic for a given compiler, so the budget is
   an exact regression bound; [Gc.minor_words] boxes its result, so the
   cost of one measurement is calibrated out. *)
let test_trapped_path_allocation () =
  let n = 1_000 in
  let words = Hashtbl.create 4 in
  let measure name op =
    let c0 = Gc.minor_words () in
    let c1 = Gc.minor_words () in
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      op i
    done;
    let w1 = Gc.minor_words () in
    Hashtbl.replace words name ((w1 -. w0 -. (c1 -. c0)) /. float_of_int n)
  in
  let setup = Runner.make () in
  Runner.run setup ~main:(fun () ->
      let buf = Api.alloc ~page_aligned:true (Api.page_words ()) in
      Api.write buf 0;
      Api.advise buf 1 Platinum_kernel.Memsys.Freeze;
      (* The frozen page's one copy stays on module 0; processor 1
         measures, so every access is remote. *)
      Api.join
        (Api.spawn ~proc:1 (fun () ->
             for _ = 1 to 10 do
               ignore (Api.rmw buf succ : int)
             done;
             measure "read" (fun _ -> ignore (Api.read buf : int));
             measure "write" (fun i -> Api.write buf i);
             measure "rmw" (fun _ -> ignore (Api.rmw buf succ : int));
             (* An empty event posted for processor 2 one ns ahead is
                pending before every read completes, so no read goes on
                in place: each resumes through the thread's [fire] event
                on the heap. *)
             measure "read, heap resume" (fun _ ->
                 Platinum_sim.Engine.post setup.Runner.engine ~dst:2 ~delay:1 ignore;
                 ignore (Api.read buf : int));
             (* 64 words of the page: a real block transfer, short enough
                that both loops end well before the defrost daemon's
                first pass (t2 = 1 s) thaws the page *)
             let len = Api.page_words () / 16 in
             let slice = Array.make len 0 in
             measure "block_read_into" (fun _ -> Api.block_read_into buf slice ~off:0 ~len);
             measure "block_write_sub" (fun _ -> Api.block_write_sub buf slice ~off:0 ~len);
             measure "now" (fun _ -> ignore (Api.now () : int));
             measure "compute" (fun _ -> Api.compute 1_000);
             measure "sleep" (fun _ -> Api.sleep 1_000))))
  |> ignore;
  Alcotest.(check (list int)) "one frozen page, its copy on module 0" [ 0 ]
    (List.map
       (fun p -> Platinum_phys.Frame.mem_module (Platinum_core.Cpage.any_copy p))
       (Platinum_core.Coherent.frozen_pages setup.Runner.coherent));
  let over =
    List.filter_map
      (fun (name, budget) ->
        let w = Hashtbl.find words name in
        if w <= budget then None
        else Some (Printf.sprintf "%s: %.1f minor words per op, budget %.0f" name w budget))
      [
        ("read", 7.); ("write", 8.); ("rmw", 8.); ("read, heap resume", 9.);
        ("block_read_into", 10.); ("block_write_sub", 10.); ("now", 2.); ("compute", 6.);
        ("sleep", 8.);
      ]
  in
  Alcotest.(check (list string)) "every op within its budget" [] over

(* Inline resumption (Engine.advance_inline) against the schedule that
   never inlines.  An engine with a router installed pops every event
   through the heap, and an identity router (each post is the
   [schedule_after] it would be without one) leaves the schedule as it
   is, so the same program on a routed engine is the reference for the
   plain [Engine.run] that [Kernel.run] uses.  Frozen-page reads,
   writes and rmws are never coalesced, so each one is a trapped resume
   the unrouted run may continue in place; five threads on three
   processors interleave them with sleeps, computes and yields, so inline
   steps alternate with popped events.  Values are recorded in host
   execution order: an inline step that ran ahead of the rest of its
   event would show up there even if the timings agreed. *)
let run_inline_differential ~routed =
  let config = Platinum_machine.Config.butterfly_plus ~nprocs:4 () in
  let setup = Runner.make ~config ~frames_per_module:64 ~default_zone_pages:32 () in
  let observed = ref [] in
  let note v = observed := v :: !observed in
  let main () =
    let buf = Api.alloc ~page_aligned:true (Api.page_words ()) in
    Api.write buf 0;
    Api.advise buf 1 Platinum_kernel.Memsys.Freeze;
    let worker w () =
      for i = 1 to 60 do
        (match (i * (w + 1)) mod 7 with
        | 0 | 1 -> note (Api.read (buf + w))
        | 2 -> Api.write (buf + w) (i * w)
        | 3 -> note (Api.rmw buf succ)
        | 4 -> Api.sleep (50 * (w + 1))
        | 5 -> Api.compute (37 * i)
        | _ -> Api.yield ());
        note (Api.now ())
      done
    in
    let tids = List.init 5 (fun w -> Api.spawn ~proc:(1 + (w mod 3)) (worker w)) in
    List.iter Api.join tids;
    note (Api.read buf)
  in
  ignore (Kernel.spawn setup.Runner.kernel ~proc:0 main : int);
  let engine = setup.Runner.engine in
  if routed then
    Platinum_sim.Engine.set_router engine
      (Some
         {
           Platinum_sim.Engine.route =
             (fun ~dst:_ ~delay fn -> Platinum_sim.Engine.schedule_after engine ~delay fn);
         });
  Platinum_sim.Engine.run engine;
  let elapsed = Kernel.post_run_checks setup.Runner.kernel in
  let c = Platinum_core.Coherent.counters setup.Runner.coherent in
  let counters =
    Platinum_core.Counters.
      [
        c.read_faults; c.write_faults; c.vm_faults; c.replications; c.migrations;
        c.remote_maps; c.freezes; c.thaws; c.shootdowns; c.messages; c.interrupts;
        c.deferred_updates; c.pages_freed; c.zero_fills; c.atc_reloads; c.fault_ns; c.copy_ns;
      ]
  in
  ( elapsed,
    List.rev !observed,
    counters,
    Platinum_sim.Engine.events_processed engine,
    Kernel.context_switches setup.Runner.kernel )

let test_inline_resume_differential () =
  let elapsed, values, counters, events, switches = run_inline_differential ~routed:false in
  let elapsed', values', counters', events', switches' =
    run_inline_differential ~routed:true
  in
  Alcotest.(check int) "elapsed" elapsed' elapsed;
  Alcotest.(check (list int)) "values read, in execution order" values' values;
  Alcotest.(check (list int)) "counters" counters' counters;
  Alcotest.(check int) "events processed" events' events;
  Alcotest.(check int) "context switches" switches' switches;
  (* [freezes] is the seventh counter. *)
  Alcotest.(check bool) "the run froze its page" true (List.nth counters 6 > 0)

(* A remote backend's completion (Memsys.remote) through the pending
   slot.  The stub adopts every word access, serves it through the
   synchronous [submit] at once and completes it with
   [~delay:(max 1 lat)] from inside [try_remote], so the remote run
   differs from the synchronous one only in how each access resumes: the
   thread blocks, its [timer] wakes it that much later, and its
   processor dispatches it again.  Three threads on their own processors
   read back their own words and share a counter; then the initial
   thread measures the allocation of adopted rmws. *)
let run_remote_stub ~remote =
  let config = Platinum_machine.Config.butterfly_plus ~nprocs:4 () in
  let setup = Runner.make ~config ~frames_per_module:64 ~default_zone_pages:32 () in
  let engine = setup.Runner.engine in
  let base = Platinum_kernel.Platsys.memsys setup.Runner.platsys in
  let adopted = ref 0 in
  let try_remote ~now ~proc ~aspace txn ~complete =
    match txn with
    | Platinum_core.Memtxn.Read _ | Write _ | Rmw _ ->
      let lat = base.Platinum_kernel.Memsys.submit ~now ~proc ~aspace txn in
      let word = match txn with Write _ -> 0 | _ -> !(base.Platinum_kernel.Memsys.value) in
      incr adopted;
      complete ~delay:(max 1 lat) word;
      true
    | _ -> false
  in
  let memsys =
    {
      base with
      Platinum_kernel.Memsys.fastpath = None;
      remote = (if remote then Some { Platinum_kernel.Memsys.try_remote } else None);
    }
  in
  let kernel = Kernel.create ~engine ~machine:setup.Runner.machine ~memsys () in
  let logs = Array.make 3 [] in
  let total = ref 0 in
  let words = ref 0. in
  let main () =
    let buf = Api.alloc 4 in
    let worker w () =
      for i = 1 to 40 do
        Api.write (buf + w) (i * (w + 1));
        let v = Api.read (buf + w) in
        let old = Api.rmw (buf + w) succ in
        ignore (Api.rmw (buf + 3) succ : int);
        logs.(w) <- (Api.my_proc (), v, old, Api.read (buf + w)) :: logs.(w)
      done
    in
    List.iter Api.join (List.init 3 (fun w -> Api.spawn ~proc:(w + 1) (worker w)));
    let n = 1_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Api.rmw (buf + 3) succ : int)
    done;
    words := (Gc.minor_words () -. w0) /. float_of_int n;
    total := Api.read (buf + 3)
  in
  let elapsed = Kernel.run kernel ~main in
  (elapsed, Array.map List.rev logs, !total, Kernel.context_switches kernel, !adopted, !words)

let test_remote_completion () =
  let elapsed, logs, total, switches, _, _ = run_remote_stub ~remote:false in
  let elapsed', logs', total', switches', adopted, words = run_remote_stub ~remote:true in
  Array.iteri
    (fun w log ->
      let want =
        List.init 40 (fun i ->
            let v = (i + 1) * (w + 1) in
            [ w + 1; v; v; v + 1 ])
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "thread %d: its processor, read, rmw's old value, read back" w)
        want
        (List.map (fun (proc, v, old, back) -> [ proc; v; old; back ]) log);
      Alcotest.(check bool) (Printf.sprintf "thread %d: as the synchronous run" w) true
        (log = logs.(w)))
    logs';
  Alcotest.(check int) "every rmw of the shared counter landed" 1_120 total';
  Alcotest.(check int) "synchronous run agrees" total total';
  (* 3 threads x 40 rounds x 5 accesses, the 1000 measured rmws and the
     final read. *)
  Alcotest.(check int) "every word access adopted" 1_601 adopted;
  (* Each completion wakes its thread into exactly one more dispatch. *)
  Alcotest.(check int) "one dispatch per completion" (switches + adopted) switches';
  Alcotest.(check bool) "remote completion is later" true (elapsed' > elapsed);
  (* 10 words: the synchronous rmw's 8 and the slot's [Result]; the
     completion posts the thread's own [timer] and the wake's run-queue
     traffic allocates nothing. *)
  if words > 11. then Alcotest.failf "%.1f minor words per remote rmw, budget 11" words

(* Run queues are FIFO rings of tids that start with room for 8.  A
   spawner on processor 1 starts 3 workers and yields once, so the
   workers' own yields walk the ring's head forward; then it spawns 9
   more, so the ring wraps and grows while its head is mid-array.  Each
   worker notes its index and yields, 3 times; every pass over the ring
   must run the live workers in spawn order. *)
let test_run_queue_fifo () =
  let log = ref [] in
  run (fun () ->
      let spawner () =
        let worker i () =
          for _ = 1 to 3 do
            log := i :: !log;
            Api.yield ()
          done
        in
        let first = List.init 3 (fun i -> Api.spawn ~proc:1 (worker i)) in
        Api.yield ();
        let rest = List.init 9 (fun i -> Api.spawn ~proc:1 (worker (i + 3))) in
        List.iter Api.join (first @ rest)
      in
      Api.join (Api.spawn ~proc:1 spawner))
  |> ignore;
  let range a b = List.init (b - a) (fun i -> a + i) in
  Alcotest.(check (list int)) "every pass in spawn order"
    (range 0 3 @ range 0 12 @ range 0 12 @ range 3 12)
    (List.rev !log)

(* Host allocation of a hosted replica hit (DESIGN.md §4g): node 1 reads
   a word of row 0, homed at node 0, once to replicate its page, then
   measures warm reads.  Each one traps, hits the replica and completes
   through the thread's own [timer], with no request record, no
   completion closure and no run-queue allocation, so a read costs only
   the trap: the effect, the transaction, the continuation and the
   slot's [Result], 9 words.  Nothing else is live: the other nodes
   finish at once. *)
let test_hosted_hit_allocation () =
  let config = Platinum_machine.Config.hierarchical ~cluster_size:4 ~nodes:8 () in
  let n = 1_000 in
  let words = ref nan and sum = ref 0 in
  let body ~node ~row ~rng:_ =
    if node = 1 then begin
      let a = row 0 in
      sum := Api.read a;
      let c0 = Gc.minor_words () in
      let c1 = Gc.minor_words () in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        sum := !sum + Api.read (a + 1)
      done;
      words := (Gc.minor_words () -. w0 -. (c1 -. c0)) /. float_of_int n
    end
  in
  let prog =
    {
      Platinum_scale.Parkernel.name = "warm_hits";
      image = [ (0, [| 5; 7 |]) ];
      body;
      verify = (fun words -> (words 0).(1) = 7);
    }
  in
  let r = Platinum_scale.Parkernel.run ~config (Platinum_scale.Parkernel.Program prog) in
  Alcotest.(check bool) "verified" true r.Platinum_scale.Parkernel.verified;
  Alcotest.(check int) "every read saw the home's words" (5 + (7 * n)) !sum;
  Alcotest.(check int) "one page copy" 1 r.Platinum_scale.Parkernel.replications;
  if !words > 9. then Alcotest.failf "%.1f minor words per hosted hit, budget 9" !words

(* Synchronization on an adversarial machine: module stalls/outages delay
   the atomic ops but must never corrupt them. *)
let test_spinlock_under_injection () =
  let config = Platinum_machine.Config.butterfly_plus ~nprocs:4 () in
  Runner.time ~config ~frames_per_module:64 ~default_zone_pages:32
    ~inject:(Platinum_sim.Inject.config ~seed:5L ~rate:0.3 ())
    (fun () ->
      let lock = Sync.Spinlock.make () in
      let counter = Api.alloc 1 in
      let worker () =
        for _ = 1 to 5 do
          Sync.Spinlock.with_lock lock (fun () ->
              Api.write counter (Api.read counter + 1))
        done
      in
      let tids = List.init 4 (fun i -> Api.spawn ~proc:i worker) in
      List.iter Api.join tids;
      Alcotest.(check int) "increments survive injected faults" 20 (Api.read counter))
  |> ignore

let suite =
  [
    ("threads: spawn and join", `Quick, test_spawn_join);
    ("threads: join finished thread", `Quick, test_join_finished_thread);
    ("threads: many threads", `Quick, test_many_threads);
    ("threads: self and my_proc", `Quick, test_self_and_proc);
    ("threads: compute advances the clock", `Quick, test_compute_advances_clock);
    ("threads: migration", `Quick, test_migrate);
    ("threads: true parallelism", `Quick, test_threads_run_in_parallel);
    ("threads: timeslicing on one processor", `Quick, test_timeslicing_same_proc);
    ("ports: send/recv", `Quick, test_port_send_recv);
    ("ports: blocking recv", `Quick, test_port_blocking_recv);
    ("ports: FIFO", `Quick, test_port_fifo);
    ("ports: messages are copied", `Quick, test_port_copies_messages);
    ("ports: multiple receivers", `Quick, test_port_many_receivers);
    ("kernel: deadlock detected", `Quick, test_deadlock_detected);
    ("kernel: thread failure propagates", `Quick, test_thread_failure_propagates);
    ("kernel: self-join fails the caller", `Quick, test_self_join_fails_the_caller);
    ("memory: word round trip", `Quick, test_read_write_roundtrip);
    ("memory: block round trip", `Quick, test_block_roundtrip);
    ("memory: rmw returns old", `Quick, test_rmw_returns_old);
    ("memory: zones", `Quick, test_zones_from_api);
    ("memory: page_words", `Quick, test_page_words_exposed);
    ("aspace: private heaps", `Quick, test_aspace_private_heaps);
    ("aspace: isolation", `Quick, test_aspace_isolation);
    ("aspace: segments shared across spaces", `Quick, test_segment_shared_across_spaces);
    ("aspace: cross-space coherence", `Quick, test_segment_coherent_across_spaces);
    ("sync: spinlock mutual exclusion", `Quick, test_spinlock_mutual_exclusion);
    ("sync: event count", `Quick, test_event_count);
    ("sync: barrier ordering", `Quick, test_barrier);
    ("sync: barrier reusable", `Quick, test_barrier_reusable);
    ("sync: with_lock releases on exception", `Quick, test_with_lock_releases_on_exn);
    ("sync: spinlock oversubscribed", `Quick, test_spinlock_oversubscribed);
    ("sync: event count wakes every waiter", `Quick, test_event_count_multiple_waiters);
    ("sync: barrier rejects zero parties", `Quick, test_barrier_invalid_parties);
    ("sync: sleep advances the clock", `Quick, test_sleep_advances_clock);
    ("kernel: trapped path allocation budget", `Quick, test_trapped_path_allocation);
    ("kernel: inline resumption ≡ budgeted run", `Quick, test_inline_resume_differential);
    ("kernel: remote completion through the pending slot", `Quick, test_remote_completion);
    ("kernel: run queue FIFO through wrap and growth", `Quick, test_run_queue_fifo);
    ("kernel: hosted replica hit allocation budget", `Quick, test_hosted_hit_allocation);
    ("sync: spinlock correct under fault injection", `Quick, test_spinlock_under_injection);
  ]
