(* The PLATINUM kernel runtime (interface in kernel.mli).  Simulated
   threads trap in by performing the effects of {!Eff}; [start_fiber]
   installs the one handler.  It has four arms — [Access_txn], [Compute],
   [Sleep] and [Syscall] — and each closes the coalescing window through
   [settle] before its op runs.  [syscall] handles every other service
   in one exhaustive match over the closed [Eff.request] type, so a
   service without an arm does not compile.

   The trap and resume path allocates nothing beyond the effect's own
   continuation (DESIGN.md §4g, the trapped path).  The first three arms,
   and [Syscall Now], return handlers each thread built once in
   [start_fiber], which read their payload from the thread record.  A
   suspended thread keeps its continuation in one [pending] slot, and
   every event that resumes it is a closure built once: the thread's
   [fire] and [timer], its [remote_done] completion, and each
   processor's dispatcher.  Run queues are rings of tids: a wake or a
   dispatch allocates nothing. *)

module Engine = Platinum_sim.Engine
module Machine = Platinum_machine.Machine
module Config = Platinum_machine.Config
module Memtxn = Platinum_core.Memtxn

exception Deadlock of string
exception Thread_failure of exn

let () =
  Printexc.register_printer (function
    | Thread_failure e -> Some ("thread failure: " ^ Printexc.to_string e)
    | _ -> None)

type thread_state =
  | Runnable
  | Running
  | Blocked
  | Finished

(* What the next dispatch of a thread runs.  A thread has at most one
   pending resumption — it is suspended at exactly one perform point, and
   nothing resumes it twice — so one slot per thread is enough. *)
type pending =
  | Nothing  (* nothing pending: the next dispatch starts the fiber *)
  | Result of (int, unit) Effect.Deep.continuation  (* the word in [result] *)
  | Unit of (unit, unit) Effect.Deep.continuation
  | Thunk of (unit -> unit)  (* any other result, or [block]'s lazy value *)

type thread = {
  tid : int;
  body : unit -> unit;
  aspace : int;  (* a thread executes within a single address space *)
  mutable proc : int;
  mutable state : thread_state;
  mutable pending : pending;
  mutable result : int;  (* the word a [Result] continues with *)
  mutable txn : Memtxn.t;  (* the [Access_txn] payload its stored handler reads *)
  mutable arg : int;  (* the [Compute] or [Sleep] payload *)
  mutable joiners : int list;
  mutable quantum_used : int;
  fire : unit -> unit;  (* every resume through the event heap *)
  timer : unit -> unit;  (* a sleep's expiry *)
  remote_done : delay:int -> int -> unit;  (* a remote backend's completion *)
}

(* A run queue: a FIFO ring of tids that doubles when full. *)
type iq = { mutable ring : int array; mutable head : int; mutable len : int }

type port = {
  messages : int array Queue.t;
  waiters : iq;  (* tids blocked in recv *)
}

type t = {
  engine : Engine.t;
  machine : Machine.t;
  memsys : Memsys.t;
  fastpath : Fastpath.ops option;  (* the ops to arm between suspends; [None] = never arm *)
  proc_base : int;  (* first processor this kernel schedules *)
  proc_count : int;  (* width of the slice; run queues are indexed by offset *)
  threads : (int, thread) Hashtbl.t;
  runqs : iq array;
  proc_active : bool array;  (* an event for this processor is in flight *)
  dispatchers : (unit -> unit) array;  (* each processor's dispatch event, built once *)
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

let memsys t = t.memsys
let config t = Machine.config t.machine
let threads_created t = t.created
let context_switches t = t.switches

(* The first thread failure halts the kernel: no thread resumes after it,
   so the engine drains and [run] reports the failure, rather than leave
   the other threads polling a peer that will never answer. *)
let halted t = match t.failure with None -> false | Some _ -> true

let runq t proc = t.runqs.(proc - t.proc_base)
let proc_busy t proc = t.proc_active.(proc - t.proc_base)
let set_proc_busy t proc v = t.proc_active.(proc - t.proc_base) <- v
let in_slice t p = p >= t.proc_base && p < t.proc_base + t.proc_count

let thread t tid =
  try Hashtbl.find t.threads tid
  with Not_found -> invalid_arg (Printf.sprintf "Kernel: unknown thread %d" tid)

let iq_create () = { ring = Array.make 8 0; head = 0; len = 0 }

let iq_add q tid =
  let cap = Array.length q.ring in
  if q.len = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      ring.(i) <- q.ring.((q.head + i) land (cap - 1))
    done;
    q.ring <- ring;
    q.head <- 0
  end;
  q.ring.((q.head + q.len) land (Array.length q.ring - 1)) <- tid;
  q.len <- q.len + 1

(* The oldest tid, or -1 when the queue is empty. *)
let iq_take q =
  if q.len = 0 then -1
  else begin
    let tid = q.ring.(q.head) in
    q.head <- (q.head + 1) land (Array.length q.ring - 1);
    q.len <- q.len - 1;
    tid
  end

let place t = function
  | Some p ->
    if not (in_slice t p) then
      invalid_arg (Printf.sprintf "Kernel: no processor %d" p);
    p
  | None ->
    let p = t.proc_base + t.place_rr in
    t.place_rr <- (t.place_rr + 1) mod t.proc_count;
    p

(* ------------------------------------------------------------------ *)
(* Scheduling core.                                                    *)
(* ------------------------------------------------------------------ *)

(* Arm the coalescing fast path for [th] just before control transfers
   into its user code (DESIGN.md §4g).  While armed, [Api.read]/[write]/
   [rmw] complete clean ATC hits inline — no effect, no suspend —
   accumulating their cost into one batched charge that [settle] applies
   at the next real suspension.  Eligibility is re-checked per word; any
   pending interrupt penalty keeps the whole window on the full path so
   deferred shootdown-handler charges land exactly where the seed
   schedule put them. *)
let arm t th =
  match t.fastpath with
  | Some ops when Machine.pending_penalty t.machine ~proc:th.proc = 0 ->
    (* An empty runq means preemption is impossible until some other
       event makes it non-empty — and no event can fire mid-run, so the
       run is unbounded by the quantum.  Otherwise the remaining quantum
       caps the run just as the per-word path's boundary check would. *)
    let quantum_left =
      if (runq t th.proc).len = 0 then max_int
      else (config t).Config.quantum_ns - th.quantum_used
    in
    Fastpath.arm (Fastpath.ctx ()) ops ~inject:(Machine.inject t.machine)
      ~value:t.memsys.Memsys.value ~base:(Engine.now t.engine) ~proc:th.proc ~aspace:th.aspace
      ~quantum_left
  | _ -> ()

let rec make_thread t ~proc ~aspace body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let rec th =
    {
      tid;
      body;
      aspace;
      proc;
      state = Runnable;
      pending = Nothing;
      result = 0;
      txn = Memtxn.Read { vaddr = 0 };
      arg = 0;
      joiners = [];
      quantum_used = 0;
      fire = (fun () -> fired t th);
      timer = (fun () -> wake t th);
      remote_done =
        (fun ~delay word ->
          th.result <- word;
          if delay = 0 then wake t th else Engine.schedule_after t.engine ~delay th.timer);
    }
  in
  Hashtbl.replace t.threads tid th;
  t.live <- t.live + 1;
  t.created <- t.created + 1;
  th

and dispatch t proc =
  match if halted t then -1 else iq_take (runq t proc) with
  | -1 -> set_proc_busy t proc false
  | tid ->
    set_proc_busy t proc true;
    t.switches <- t.switches + 1;
    let th = thread t tid in
    th.state <- Running;
    th.quantum_used <- 0;
    resume t th

(* Empty the thread's pending slot and run what it held. *)
and resume t th =
  let p = th.pending in
  th.pending <- Nothing;
  match p with
  | Nothing -> start_fiber t th
  | Result k -> continue_armed t th k th.result
  | Unit k -> continue_armed t th k ()
  | Thunk f -> f ()

and continue_armed : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun t th k v ->
  arm t th;
  Effect.Deep.continue k v

(* A thread's [fire] event: a thread preempted when it queued the event
   rejoins its run queue; any other resumes at once. *)
and fired t th =
  if halted t then ()
  else if th.state = Runnable then begin
    iq_add (runq t th.proc) th.tid;
    dispatch t th.proc
  end
  else resume t th

(* A processor that was idle gets a dispatch event; one that is mid-event
   will reach its own dispatch when the current thread blocks/finishes.
   The wakeup is cross-node work when the waker runs elsewhere (a port
   send, a join completion), so it goes through the engine's [post]
   façade: sequentially that is a plain [schedule_after]; under [Shard]
   it is a mailbox crossing. *)
and wake t th =
  th.state <- Runnable;
  iq_add (runq t th.proc) th.tid;
  if not (proc_busy t th.proc) then begin
    set_proc_busy t th.proc true;
    let delay = (config t).Config.context_switch_ns in
    Engine.post t.engine ~dst:th.proc ~delay t.dispatchers.(th.proc - t.proc_base)
  end

and finish_thread t th =
  th.state <- Finished;
  t.live <- t.live - 1;
  if t.live = 0 then t.finished_at <- Engine.now t.engine;
  List.iter (fun tid -> wake t (thread t tid)) th.joiners;
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
  th.quantum_used >= (config t).Config.quantum_ns && (runq t th.proc).len > 0

(* Charge [lat] ns and say whether the thread goes on in place: at once
   for a zero charge, and by an inline engine step when its resume event
   would be the very next one popped.  Otherwise the thread's [fire]
   event is queued [total] ns ahead — it puts a preempted thread back on
   the run queue and resumes any other — and the caller must fill the
   pending slot before it returns.  A [true] answer must be followed
   only by the resumption itself (Engine.advance_inline's soundness
   condition), so every caller uses it from tail position. *)
and goes_on t th lat =
  let total = charge t th ~lat in
  let preempted = preempted t th in
  if
    (not preempted)
    && (total = 0 || Engine.advance_inline t.engine ~at:(Engine.now t.engine + total))
  then true
  else begin
    if preempted then th.state <- Runnable;
    Engine.schedule_after t.engine ~delay:total th.fire;
    false
  end

(* Complete a service of [lat] ns by resuming the fiber with [v].  A
   deferred resume takes a [Thunk]: a service's result can be of any
   type.  The word-access and compute ops fill the slot's typed arms. *)
and complete : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a -> int -> unit =
 fun t th k v lat ->
  if goes_on t th lat then continue_armed t th k v
  else th.pending <- Thunk (fun () -> continue_armed t th k v)

(* Close the coalescing window before handling a real suspension, then
   perform the pending kernel work [op t th x y]: if the thread drained a
   run of inline hits since it was last armed, charge the accumulated
   cost as one batched operation — exactly what a Block descriptor
   covering the same words would pay — and only then run [op], at engine
   time [base + acc].  [op] is a top-level function, so an empty run
   costs one branch and allocates nothing; only an [op] deferred through
   the event queue needs a closure. *)
and settle : type a b. t -> thread -> (t -> thread -> a -> b -> unit) -> a -> b -> unit =
 fun t th op x y ->
  let acc = Fastpath.close (Fastpath.ctx ()) in
  if acc = 0 || goes_on t th acc then op t th x y
  else th.pending <- Thunk (fun () -> op t th x y)

(* Run a service that may raise (a protection or address-space error,
   an exhausted zone, ...): the exception is delivered back into the
   faulting thread at its perform point via [discontinue], where the
   fiber's own handler turns it into a thread failure — it must not
   escape the engine mid-event; the kernel halts and [run] reports it. *)
and service :
    type a. t -> thread -> (a, unit) Effect.Deep.continuation -> (unit -> a * int) -> unit =
 fun t th k f ->
  match f () with
  | v, lat -> complete t th k v lat
  | exception e -> Effect.Deep.discontinue k e

and compute_op t th k ns =
  if goes_on t th (Int.max ns 0) then continue_armed t th k () else th.pending <- Unit k

and finish_op t th () () = finish_thread t th

and fail_op t th () e =
  if t.failure = None then t.failure <- Some e;
  finish_thread t th

(* The whole memory hot path: one trap, one backend submit — reached only
   when the coalescer declined the access, so [settle] has already
   charged any drained run and the submit runs at the batched-charge
   horizon.

   A distributed backend (Memsys.remote, DESIGN.md §4j) may adopt the
   transaction instead: the thread blocks with its continuation in the
   pending slot, protocol messages do their round trips on the engine,
   and the thread's [remote_done] stores the word and wakes it, now
   or [delay] ns later — the latency is implicit in when that wake
   fires, so nothing further is charged here. *)
and access_op t th k txn =
  match t.memsys.Memsys.remote with
  | Some r
    when r.Memsys.try_remote ~now:(Engine.now t.engine) ~proc:th.proc ~aspace:th.aspace txn
           ~complete:th.remote_done ->
    th.state <- Blocked;
    th.pending <- Result k;
    dispatch t th.proc
  | _ -> (
    match
      t.memsys.Memsys.submit ~now:(Engine.now t.engine) ~proc:th.proc ~aspace:th.aspace txn
    with
    | lat ->
      let v = !(t.memsys.Memsys.value) in
      if goes_on t th lat then continue_armed t th k v
      else begin
        th.result <- v;
        th.pending <- Result k
      end
    | exception e -> Effect.Deep.discontinue k e)

(* A timed wait: the thread blocks, the processor moves on, and the
   thread's [timer] event re-wakes it. *)
and sleep_op t th k ns =
  th.state <- Blocked;
  th.pending <- Unit k;
  Engine.schedule_after t.engine ~delay:(Int.max ns 0) th.timer;
  dispatch t th.proc

(* Block the current thread on [k]; its processor moves on. *)
and block : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a Lazy.t -> unit =
 fun t th k v ->
  th.state <- Blocked;
  th.pending <-
    Thunk
      (fun () ->
        (* Force first: a failing waker must not leave a stale window. *)
        let v = Lazy.force v in
        continue_armed t th k v);
  dispatch t th.proc

(* Every kernel service, in one exhaustive match over the closed request
   type: a service without an arm here does not compile. *)
and syscall :
    type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a Eff.request -> unit =
 fun t th k req ->
  match req with
  | Eff.Yield ->
    th.state <- Runnable;
    th.pending <- Unit k;
    iq_add (runq t th.proc) th.tid;
    dispatch t th.proc
  | Eff.Spawn (body, hint, aspace_hint) ->
    service t th k (fun () ->
        let proc = place t hint in
        let aspace = Option.value aspace_hint ~default:th.aspace in
        let child = make_thread t ~proc ~aspace body in
        wake t child;
        (child.tid, (config t).Config.thread_spawn_ns))
  | Eff.Join tid -> (
    match thread t tid with
    | exception e -> Effect.Deep.discontinue k e
    | target when target == th ->
      Effect.Deep.discontinue k
        (Invalid_argument (Printf.sprintf "join: thread %d joins itself" tid))
    | target ->
      if target.state = Finished then complete t th k () 0
      else begin
        target.joiners <- th.tid :: target.joiners;
        block t th k (lazy ())
      end)
  | Eff.Migrate proc ->
    if not (in_slice t proc) then
      Effect.Deep.discontinue k
        (Invalid_argument (Printf.sprintf "migrate: no processor %d" proc))
    else begin
      let from_proc = th.proc in
      let lat =
        if proc = from_proc then 0
        else
          (config t).Config.thread_migrate_ns
          + t.memsys.Memsys.migrate_cost ~now:(Engine.now t.engine) ~from_proc ~to_proc:proc
      in
      (* The thread leaves this processor; resume it on the new one and
         let this one schedule other work. *)
      th.state <- Runnable;
      th.pending <- Unit k;
      th.proc <- proc;
      (* The migration itself is cross-node traffic: the thread (kernel
         stack and all) lands on [proc]'s queue. *)
      Engine.post t.engine ~dst:proc ~delay:lat (fun () ->
          iq_add (runq t proc) th.tid;
          if not (proc_busy t proc) then begin
            set_proc_busy t proc true;
            dispatch t proc
          end);
      dispatch t from_proc
    end
  | Eff.Self -> complete t th k th.tid 0
  | Eff.My_proc -> complete t th k th.proc 0
  | Eff.Now -> complete t th k (Engine.now t.engine) 0
  | Eff.New_port ->
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    Hashtbl.replace t.ports pid { messages = Queue.create (); waiters = iq_create () };
    complete t th k pid 0
  | Eff.Port_send (pid, msg) -> (
    match Hashtbl.find_opt t.ports pid with
    | None ->
      Effect.Deep.discontinue k (Invalid_argument (Printf.sprintf "send: unknown port %d" pid))
    | Some port ->
      let cfg = config t in
      let lat = cfg.Config.port_op_ns + (Array.length msg * cfg.Config.t_block_word) in
      Queue.add (Array.copy msg) port.messages;
      (match iq_take port.waiters with
      | -1 -> ()
      | tid -> wake t (thread t tid));
      complete t th k () lat)
  | Eff.Port_recv pid -> (
    match Hashtbl.find_opt t.ports pid with
    | None ->
      Effect.Deep.discontinue k (Invalid_argument (Printf.sprintf "recv: unknown port %d" pid))
    | Some port ->
      let cfg = config t in
      let take () =
        match Queue.take_opt port.messages with
        | Some m -> m
        | None -> failwith "Kernel: woken receiver found empty port"
      in
      if not (Queue.is_empty port.messages) then begin
        let m = take () in
        complete t th k m (cfg.Config.port_op_ns + (Array.length m * cfg.Config.t_block_word))
      end
      else begin
        iq_add port.waiters th.tid;
        block t th k (lazy (take ()))
      end)
  | Eff.New_zone (name, pages) ->
    service t th k (fun () -> (t.memsys.Memsys.new_zone ~aspace:th.aspace ~name ~pages, 0))
  | Eff.Alloc (zone, words, page_aligned) ->
    service t th k (fun () -> (t.memsys.Memsys.alloc ~zone ~words ~page_aligned, 0))
  | Eff.Alloc_pages (zone, pages) ->
    let words = pages * t.memsys.Memsys.page_words in
    service t th k (fun () -> (t.memsys.Memsys.alloc ~zone ~words ~page_aligned:true, 0))
  | Eff.Page_words -> complete t th k t.memsys.Memsys.page_words 0
  | Eff.Advise (vaddr, len, advice) ->
    service t th k (fun () ->
        ( (),
          t.memsys.Memsys.advise ~now:(Engine.now t.engine) ~proc:th.proc ~aspace:th.aspace
            ~vaddr ~len advice ))
  | Eff.My_aspace -> complete t th k th.aspace 0
  | Eff.New_aspace -> service t th k (fun () -> (t.memsys.Memsys.new_aspace (), 0))
  | Eff.New_segment (name, pages) ->
    service t th k (fun () -> (t.memsys.Memsys.new_segment ~name ~pages, 0))
  | Eff.Map_segment segment ->
    service t th k (fun () ->
        ( t.memsys.Memsys.map_segment ~aspace:th.aspace ~segment,
          (config t).Config.vm_fault_ns ))
  | Eff.Inject_handle -> complete t th k (Machine.inject t.machine) 0

(* Thread exit and failure settle too, through top-level ops.  The
   [Access_txn], [Compute] and [Sleep] handlers are built here once per
   thread: [effc] stores the payload in the thread and returns the stored
   handler, which reads it back.  That is sound because [Effect.Deep]
   applies the handler at once, before the fiber can perform again.
   [Now] has one too; any other [Syscall] keeps its closure, as its
   request type is existential. *)
and start_fiber t th =
  let open Effect.Deep in
  let on_access = Some (fun k -> settle t th access_op k th.txn) in
  let on_compute = Some (fun k -> settle t th compute_op k th.arg) in
  let on_sleep = Some (fun k -> settle t th sleep_op k th.arg) in
  let on_now = Some (fun k -> settle t th syscall k Eff.Now) in
  arm t th;
  match_with th.body ()
    {
      retc = (fun () -> settle t th finish_op () ());
      exnc = (fun e -> settle t th fail_op () e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Eff.Access_txn txn -> th.txn <- txn; on_access
          | Eff.Compute ns -> th.arg <- ns; on_compute
          | Eff.Sleep ns -> th.arg <- ns; on_sleep
          | Eff.Syscall Eff.Now -> on_now
          | Eff.Syscall req -> Some (fun k -> settle t th syscall k req)
          | _ -> None);
    }

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

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
  let t =
    {
      engine;
      machine;
      memsys;
      fastpath = (if coalesce then memsys.Memsys.fastpath else None);
      proc_base = base;
      proc_count = count;
      threads = Hashtbl.create 64;
      runqs = Array.init count (fun _ -> iq_create ());
      proc_active = Array.make count false;
      dispatchers = Array.make count ignore;
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
  in
  for i = 0 to count - 1 do
    t.dispatchers.(i) <- (fun () -> dispatch t (base + i))
  done;
  t

let spawn t ?proc ?(aspace = 0) body =
  let proc = place t proc in
  let th = make_thread t ~proc ~aspace body in
  wake t th;
  th.tid

(* The failure/deadlock report, split out of [run] so a driver
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

let run t ~main =
  ignore (spawn t ~proc:0 main);
  Engine.run t.engine;
  post_run_checks t
