module Engine = Platinum_sim.Engine
module Machine = Platinum_machine.Machine
module Config = Platinum_machine.Config

exception Deadlock of string
exception Thread_failure of exn

type thread_state =
  | Runnable
  | Running
  | Blocked
  | Finished

type thread = {
  tid : int;
  body : unit -> unit;
  aspace : int;  (* a thread executes within a single address space *)
  mutable proc : int;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;  (* pending continuation *)
  mutable joiners : int list;
  mutable quantum_used : int;
  runbuf : Fastpath.buf;  (* per-thread coalescing slots (DESIGN.md §4g) *)
}

type port = {
  messages : int array Queue.t;
  waiters : int Queue.t;  (* tids blocked in recv *)
}

type t = {
  engine : Engine.t;
  machine : Machine.t;
  memsys : Memsys.t;
  coalesce : bool;  (* arm the effect-boundary fast path between suspends *)
  proc_base : int;  (* first processor this kernel schedules *)
  proc_count : int;  (* width of the slice; run queues are indexed by offset *)
  threads : (int, thread) Hashtbl.t;
  runqs : int Queue.t array;
  proc_active : bool array;  (* an event for this processor is in flight *)
  ports : (int, port) Hashtbl.t;
  mutable next_tid : int;
  mutable next_pid : int;
  mutable live : int;
  mutable created : int;
  mutable switches : int;
  mutable finished_at : int;
  mutable failure : exn option;
  mutable place_rr : int;
}

(* A kernel normally schedules every processor of the machine.  Under the
   hosted sharded driver (Shard.host, DESIGN.md §4j) one kernel instance
   runs per node, and [slice] restricts it to that node's processors —
   run queues and active flags are sized to the slice, not the machine,
   so N per-node kernels cost O(N) queues in total rather than O(N^2). *)
let create ?(coalesce = true) ?slice ~engine ~machine ~memsys () =
  let nmachine = Machine.nprocs machine in
  let base, count =
    match slice with
    | None -> (0, nmachine)
    | Some (base, count) ->
      if base < 0 || count < 1 || base + count > nmachine then
        invalid_arg
          (Printf.sprintf "Kernel.create: slice [%d, %d) outside machine of %d procs" base
             (base + count) nmachine);
      (base, count)
  in
  {
    engine;
    machine;
    memsys;
    coalesce = coalesce && memsys.Memsys.fastpath <> None;
    proc_base = base;
    proc_count = count;
    threads = Hashtbl.create 64;
    runqs = Array.init count (fun _ -> Queue.create ());
    proc_active = Array.make count false;
    ports = Hashtbl.create 16;
    next_tid = 0;
    next_pid = 0;
    live = 0;
    created = 0;
    switches = 0;
    finished_at = 0;
    failure = None;
    place_rr = 0;
  }

let engine t = t.engine
let machine t = t.machine
let memsys t = t.memsys
let config t = Machine.config t.machine
let live_threads t = t.live
let all_done t = t.live = 0 && t.created > 0
let threads_created t = t.created
let context_switches t = t.switches

let runq t proc = t.runqs.(proc - t.proc_base)
let proc_busy t proc = t.proc_active.(proc - t.proc_base)
let set_proc_busy t proc v = t.proc_active.(proc - t.proc_base) <- v
let in_slice t p = p >= t.proc_base && p < t.proc_base + t.proc_count

let thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some th -> th
  | None -> invalid_arg (Printf.sprintf "Kernel: unknown thread %d" tid)

let place t = function
  | Some p ->
    if not (in_slice t p) then
      invalid_arg (Printf.sprintf "Kernel: no processor %d" p);
    p
  | None ->
    let p = t.proc_base + t.place_rr in
    t.place_rr <- (t.place_rr + 1) mod t.proc_count;
    p

let make_thread t ~proc ~aspace body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    {
      tid;
      body;
      aspace;
      proc;
      state = Runnable;
      resume = None;
      joiners = [];
      quantum_used = 0;
      runbuf = Fastpath.make_buf ();
    }
  in
  Hashtbl.replace t.threads tid th;
  t.live <- t.live + 1;
  t.created <- t.created + 1;
  th

(* ------------------------------------------------------------------ *)
(* Scheduling core.                                                    *)
(* ------------------------------------------------------------------ *)

(* Arm the coalescing fast path for [th] just before control transfers
   into its user code (DESIGN.md §4g).  While armed, [Api.read]/[write]/
   [rmw] complete clean micro-ATC hits inline — no effect, no suspend —
   accumulating their cost into one batched charge that [settle] applies
   at the next real suspension.  Eligibility is re-checked per word; any
   pending interrupt penalty keeps the whole window on the full path so
   deferred shootdown-handler charges land exactly where the seed
   schedule put them. *)
let arm t th =
  match t.memsys.Memsys.fastpath with
  | Some ops when t.coalesce && Machine.pending_penalty t.machine ~proc:th.proc = 0 ->
    (* An empty runq means preemption is impossible until some other
       event makes it non-empty — and no event can fire mid-run, so the
       run is unbounded by the quantum.  Otherwise the remaining quantum
       caps the run just as the per-word path's boundary check would. *)
    let quantum_left =
      if Queue.is_empty (runq t th.proc) then max_int
      else (config t).Config.quantum_ns - th.quantum_used
    in
    Fastpath.arm (Fastpath.ctx ()) ops ~buf:th.runbuf ~base:(Engine.now t.engine)
      ~proc:th.proc ~aspace:th.aspace ~quantum_left
  | _ -> ()

let rec dispatch t proc =
  match Queue.take_opt (runq t proc) with
  | None -> set_proc_busy t proc false
  | Some tid ->
    set_proc_busy t proc true;
    t.switches <- t.switches + 1;
    let th = thread t tid in
    th.state <- Running;
    th.quantum_used <- 0;
    (match th.resume with
    | Some f ->
      th.resume <- None;
      f ()
    | None -> start_fiber t th)

(* A processor that was idle gets a dispatch event; one that is mid-event
   will reach its own dispatch when the current thread blocks/finishes.
   The wakeup is cross-node work when the waker runs elsewhere (a port
   send, a join completion), so it goes through the engine's [post]
   façade: sequentially that is a plain [schedule_after]; under a sharded
   driver it is a mailbox crossing.  [src] defaults to the woken thread's
   own processor (a local timer expiry). *)
and wake ?src t th =
  th.state <- Runnable;
  Queue.add th.tid (runq t th.proc);
  if not (proc_busy t th.proc) then begin
    set_proc_busy t th.proc true;
    let delay = (config t).Config.context_switch_ns in
    let src = match src with Some s -> s | None -> th.proc in
    Engine.post t.engine ~src ~dst:th.proc ~delay (fun () -> dispatch t th.proc)
  end

and finish_thread t th =
  th.state <- Finished;
  t.live <- t.live - 1;
  if t.live = 0 then t.finished_at <- Engine.now t.engine;
  List.iter (fun tid -> wake ~src:th.proc t (thread t tid)) th.joiners;
  th.joiners <- [];
  dispatch t th.proc

(* Charge an operation of [lat] ns to the current thread: add any pending
   interrupt penalty, extend the processor busy horizon and the quantum.
   Returns the total charged. *)
and charge t th ~lat =
  let total = lat + Machine.take_penalty t.machine ~proc:th.proc in
  Machine.set_proc_busy_until t.machine ~proc:th.proc (Engine.now t.engine + total);
  th.quantum_used <- th.quantum_used + total;
  total

(* Preemption happens only at operation boundaries, and only when another
   thread waits for the processor. *)
and preempted t th =
  th.quantum_used >= (config t).Config.quantum_ns && not (Queue.is_empty (runq t th.proc))

(* Resume the current thread after a charge of [total] ns — immediately
   for zero-cost operations, via the event queue otherwise. *)
and resume_after t th total resume =
  if preempted t th then begin
    th.state <- Runnable;
    th.resume <- Some resume;
    Engine.schedule_after t.engine ~delay:total (fun () ->
        Queue.add th.tid (runq t th.proc);
        dispatch t th.proc)
  end
  else if total = 0 then resume ()
  else Engine.schedule_after t.engine ~delay:total resume

(* Complete an operation of [lat] ns by resuming the fiber with [v].  A
   zero charge with no preemption resumes inline, with no resume
   closure. *)
and complete : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a -> int -> unit =
 fun t th k v lat ->
  let total = charge t th ~lat in
  if total = 0 && not (preempted t th) then begin
    arm t th;
    Effect.Deep.continue k v
  end
  else
    resume_after t th total (fun () ->
        arm t th;
        Effect.Deep.continue k v)

(* Close the coalescing window before handling a real suspension, then
   perform the pending kernel work [op t th x y]: if the thread drained a
   run of inline hits since it was last armed, charge the accumulated
   cost as one batched operation — exactly what a Block descriptor
   covering the same words would pay — and only then run [op], at engine
   time [base + acc].  [op] is a top-level function, so an empty run
   costs one branch and allocates nothing; only a deferred [op] needs a
   closure. *)
and settle : type a b. t -> thread -> (t -> thread -> a -> b -> unit) -> a -> b -> unit =
 fun t th op x y ->
  let acc = Fastpath.close (Fastpath.ctx ()) in
  if acc = 0 then op t th x y
  else resume_after t th (charge t th ~lat:acc) (fun () -> op t th x y)

(* The [settle] op for handler code that needs a closure anyway. *)
and call : t -> thread -> unit -> (unit -> unit) -> unit = fun _ _ () f -> f ()

(* Run an operation that may raise (a protection or address-space error,
   an unknown port, ...): the exception is delivered back into the
   faulting thread at its perform point via [discontinue], where the
   fiber's own handler turns it into a thread failure — one broken thread
   must not take down the whole simulated machine. *)
and run_op : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> (unit -> a * int) -> unit =
 fun t th k f ->
  match f () with
  | v, lat -> complete t th k v lat
  | exception e -> Effect.Deep.discontinue k e

and reply : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun t th k v -> complete t th k v 0

and now_op t th k () = complete t th k (Engine.now t.engine) 0
and compute_op t th k ns = complete t th k () (max ns 0)

(* The whole memory hot path: one trap, one backend submit — reached only
   when the coalescer declined the access, so [settle] has already
   charged any drained run and the submit runs at the batched-charge
   horizon.

   A distributed backend (Memsys.remote, DESIGN.md §4j) may adopt the
   transaction instead: the thread blocks, protocol messages do their
   round trips on the engine, and the completion callback wakes it with
   the result — the latency is implicit in when that wake fires, so
   nothing further is charged here. *)
and access_op t th k txn =
  match t.memsys.Memsys.remote with
  | Some r ->
    let adopted =
      r.Memsys.try_remote ~now:(Engine.now t.engine) ~proc:th.proc ~aspace:th.aspace txn
        ~complete:(fun res ->
          park t th k res;
          wake t th)
    in
    if adopted then begin
      (* Blocked with no resume until [complete] supplies one: nothing
         dispatches this thread before that [wake]. *)
      th.state <- Blocked;
      dispatch t th.proc
    end
    else submit_op t th k txn
  | None -> submit_op t th k txn

and submit_op t th k txn =
  match
    t.memsys.Memsys.submit ~now:(Engine.now t.engine) ~proc:th.proc ~aspace:th.aspace txn
  with
  | v, lat -> complete t th k v lat
  | exception e -> Effect.Deep.discontinue k e

(* A timed wait: the thread blocks, the processor moves on, and a deferred
   engine event re-wakes it — timer plumbing rather than application
   work, so it never consumes a run [?limit] budget. *)
and sleep_op t th k ns =
  th.state <- Blocked;
  park t th k ();
  Engine.schedule_after t.engine ~deferred:true ~delay:(max ns 0) (fun () -> wake t th);
  dispatch t th.proc

(* Store the fiber's resumption: the next dispatch of [th] re-arms it and
   continues [k] with [v]. *)
and park : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun t th k v ->
  th.resume <-
    Some
      (fun () ->
        arm t th;
        Effect.Deep.continue k v)

(* Block the current thread on [k]; its processor moves on. *)
and block : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a Lazy.t -> unit =
 fun t th k v ->
  th.state <- Blocked;
  th.resume <-
    Some
      (fun () ->
        (* Force first: a failing waker must not leave a stale window. *)
        let v = Lazy.force v in
        arm t th;
        Effect.Deep.continue k v);
  dispatch t th.proc

and start_fiber t th =
  let open Effect.Deep in
  arm t th;
  match_with th.body ()
    {
      retc = (fun () -> settle t th call () (fun () -> finish_thread t th));
      exnc =
        (fun e ->
          settle t th call () (fun () ->
              if t.failure = None then t.failure <- Some e;
              finish_thread t th));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Eff.Access_txn txn ->
            Some (fun (k : (a, _) continuation) -> settle t th access_op k txn)
          | Eff.Compute ns -> Some (fun k -> settle t th compute_op k ns)
          | Eff.Yield ->
            Some
              (fun k ->
                settle t th call () (fun () ->
                    th.state <- Runnable;
                    park t th k ();
                    Queue.add th.tid (runq t th.proc);
                    dispatch t th.proc))
          | Eff.Spawn (body, hint, aspace_hint) ->
            Some
              (fun k ->
                settle t th run_op k (fun () ->
                    let proc = place t hint in
                    let aspace = Option.value aspace_hint ~default:th.aspace in
                    let child = make_thread t ~proc ~aspace body in
                    wake_fresh ~src:th.proc t child;
                    (child.tid, (config t).Config.thread_spawn_ns)))
          | Eff.Join tid ->
            Some
              (fun k ->
                settle t th call () (fun () ->
                    match thread t tid with
                    | exception e -> Effect.Deep.discontinue k e
                    | target ->
                      if target.state = Finished then complete t th k () 0
                      else begin
                        target.joiners <- th.tid :: target.joiners;
                        block t th k (lazy ())
                      end))
          | Eff.Migrate proc ->
            Some
              (fun k ->
                settle t th call () (fun () ->
                    if not (in_slice t proc) then
                      Effect.Deep.discontinue k
                        (Invalid_argument (Printf.sprintf "migrate: no processor %d" proc))
                    else begin
                      let from_proc = th.proc in
                      let lat =
                        if proc = from_proc then 0
                        else
                          (config t).Config.thread_migrate_ns
                          + t.memsys.Memsys.migrate_cost ~now:(Engine.now t.engine) ~from_proc
                              ~to_proc:proc
                      in
                      (* The thread leaves this processor; resume it on the new
                         one and let this one schedule other work. *)
                      th.state <- Runnable;
                      park t th k ();
                      let old = from_proc in
                      th.proc <- proc;
                      (* The migration itself is cross-node traffic: the thread
                         (kernel stack and all) lands on [proc]'s queue. *)
                      Engine.post t.engine ~src:old ~dst:proc ~delay:lat (fun () ->
                          Queue.add th.tid (runq t proc);
                          if not (proc_busy t proc) then begin
                            set_proc_busy t proc true;
                            dispatch t proc
                          end);
                      dispatch t old
                    end))
          | Eff.Self -> Some (fun k -> settle t th reply k th.tid)
          | Eff.My_proc -> Some (fun k -> settle t th reply k th.proc)
          | Eff.Now -> Some (fun k -> settle t th now_op k ())
          | Eff.New_port ->
            Some
              (fun k ->
                settle t th call () (fun () ->
                    let pid = t.next_pid in
                    t.next_pid <- pid + 1;
                    Hashtbl.replace t.ports pid
                      { messages = Queue.create (); waiters = Queue.create () };
                    complete t th k pid 0))
          | Eff.Port_send (pid, msg) ->
            Some
              (fun k ->
                settle t th call () (fun () ->
                    match Hashtbl.find_opt t.ports pid with
                    | None ->
                      Effect.Deep.discontinue k
                        (Invalid_argument (Printf.sprintf "send: unknown port %d" pid))
                    | Some port ->
                      let cfg = config t in
                      let lat =
                        cfg.Config.port_op_ns + (Array.length msg * cfg.Config.t_block_word)
                      in
                      Queue.add (Array.copy msg) port.messages;
                      (match Queue.take_opt port.waiters with
                      | Some tid -> wake ~src:th.proc t (thread t tid)
                      | None -> ());
                      complete t th k () lat))
          | Eff.Port_recv pid ->
            Some
              (fun k ->
                settle t th call () (fun () ->
                    match Hashtbl.find_opt t.ports pid with
                    | None ->
                      Effect.Deep.discontinue k
                        (Invalid_argument (Printf.sprintf "recv: unknown port %d" pid))
                    | Some port ->
                      let cfg = config t in
                      let take () =
                        match Queue.take_opt port.messages with
                        | Some m -> m
                        | None -> failwith "Kernel: woken receiver found empty port"
                      in
                      if not (Queue.is_empty port.messages) then begin
                        let m = take () in
                        let lat =
                          cfg.Config.port_op_ns + (Array.length m * cfg.Config.t_block_word)
                        in
                        complete t th k m lat
                      end
                      else begin
                        Queue.add th.tid port.waiters;
                        block t th k (lazy (take ()))
                      end))
          | Eff.New_zone (name, pages) ->
            Some
              (fun k ->
                settle t th run_op k (fun () ->
                    (t.memsys.Memsys.new_zone ~aspace:th.aspace ~name ~pages, 0)))
          | Eff.Alloc (zone, words, page_aligned) ->
            Some
              (fun k ->
                settle t th run_op k (fun () ->
                    (t.memsys.Memsys.alloc ~zone ~words ~page_aligned, 0)))
          | Eff.Alloc_pages (zone, pages) ->
            Some
              (fun k ->
                settle t th run_op k (fun () -> (t.memsys.Memsys.alloc_pages ~zone ~pages, 0)))
          | Eff.Page_words -> Some (fun k -> settle t th reply k t.memsys.Memsys.page_words)
          | Eff.Advise (vaddr, len, advice) ->
            Some
              (fun k ->
                settle t th run_op k (fun () ->
                    ( (),
                      t.memsys.Memsys.advise ~now:(Engine.now t.engine) ~proc:th.proc
                        ~aspace:th.aspace ~vaddr ~len advice )))
          | Eff.My_aspace -> Some (fun k -> settle t th reply k th.aspace)
          | Eff.New_aspace ->
            Some (fun k -> settle t th run_op k (fun () -> (t.memsys.Memsys.new_aspace (), 0)))
          | Eff.New_segment (name, pages) ->
            Some
              (fun k ->
                settle t th run_op k (fun () -> (t.memsys.Memsys.new_segment ~name ~pages, 0)))
          | Eff.Map_segment segment ->
            Some
              (fun k ->
                settle t th run_op k (fun () ->
                    ( t.memsys.Memsys.map_segment ~aspace:th.aspace ~segment,
                      (config t).Config.vm_fault_ns )))
          | Eff.Sleep ns -> Some (fun k -> settle t th sleep_op k ns)
          | Eff.Inject_handle -> Some (fun k -> settle t th reply k (Machine.inject t.machine))
          | _ -> None)
    }

and wake_fresh ?src t th =
  Queue.add th.tid (runq t th.proc);
  if not (proc_busy t th.proc) then begin
    set_proc_busy t th.proc true;
    let delay = (config t).Config.context_switch_ns in
    let src = match src with Some s -> s | None -> th.proc in
    Engine.post t.engine ~src ~dst:th.proc ~delay (fun () -> dispatch t th.proc)
  end

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let spawn t ?proc ?(aspace = 0) body =
  let proc = place t proc in
  let th = make_thread t ~proc ~aspace body in
  wake_fresh t th;
  th.tid

(* The failure/deadlock report, split out of [run_spawned] so a driver
   that advances the engine some other way — hosted under [Shard], where
   many per-node kernels share the window loop — can still get the same
   end-of-run diagnostics. *)
let post_run_checks t =
  (match t.failure with
  | Some e -> raise (Thread_failure e)
  | None -> ());
  if t.live > 0 then begin
    let stuck =
      Hashtbl.fold
        (fun tid th acc -> if th.state = Finished then acc else (tid, th.state) :: acc)
        t.threads []
    in
    let describe (tid, st) =
      Printf.sprintf "thread %d %s" tid
        (match st with
        | Blocked -> "blocked"
        | Runnable -> "runnable"
        | Running -> "running"
        | Finished -> "finished")
    in
    raise (Deadlock (String.concat ", " (List.map describe stuck)))
  end;
  t.finished_at

let run_spawned t =
  Engine.run t.engine;
  post_run_checks t

let run t ~main =
  ignore (spawn t ~proc:0 main);
  run_spawned t
