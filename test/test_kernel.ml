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
     with Kernel.Thread_failure (Failure msg) -> msg = "boom")

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
   a kernel dispatch, a Platsys submit and an engine event.  Minor words
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
             measure "now" (fun _ -> ignore (Api.now () : int)))))
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
      [ ("read", 32.); ("write", 32.); ("rmw", 32.); ("now", 12.) ]
  in
  Alcotest.(check (list string)) "every op within its budget" [] over

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
    ("sync: spinlock correct under fault injection", `Quick, test_spinlock_under_injection);
  ]
