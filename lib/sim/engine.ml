(* The event queue is an array-backed binary min-heap (Eheap) keyed by
   (time, tagged seq).  The sequence number makes simultaneous events run
   in scheduling order, which keeps runs deterministic; its two low bits
   carry the event class — bit 0 the daemon flag, bit 1 the deferred flag
   (seq is unique per event, so tagging the low bits never reorders
   anything).  One closure per event is the only allocation.

   Three classes:
   - normal: application work; keeps {!run} alive and consumes the ?limit
     budget;
   - daemon: periodic kernel chores; neither keeps the run alive nor
     consumes budget;
   - deferred: fault-plane plumbing (a delayed interrupt redelivery, a
     retransmission timer).  It must fire — the run stays alive for it —
     but it is not application work, so it must not consume the ?limit
     budget either.  Before this class existed, injected delays had to be
     scheduled as normal events and a delayed interrupt re-enqueued past
     the limit boundary miscounted against the caller's budget.

   Inline steps: inside an unbudgeted [run] on an engine with no router,
   [advance_inline] lets the current event stand in for a normal event
   that would be the very next one popped — due strictly before every
   pending event — by advancing the clock and counting the step
   ([processed] and [seq]) exactly as the pop would have, so the caller
   runs the work in place with no closure and no heap round trip. *)

let nothing () = ()

type router = {
  route :
    src:int ->
    dst:int ->
    daemon:bool ->
    deferred:bool ->
    delay:Time_ns.t ->
    (unit -> unit) ->
    unit;
}

type t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  queue : (unit -> unit) Eheap.t;
  mutable processed : int;
  mutable normal_pending : int;  (* non-daemon (normal + deferred) events queued *)
  mutable router : router option;  (* the sharded façade's cross-node hook *)
  mutable inlining : bool;  (* inside an unbudgeted, unrouted [run] *)
}

let create () =
  {
    clock = 0;
    seq = 0;
    (* Small, and grown by doubling: a hosted run keeps one engine per
       node, most of them with only a handful of pending events. *)
    queue = Eheap.create ~capacity:32 ~dummy:nothing ();
    processed = 0;
    normal_pending = 0;
    router = None;
    inlining = false;
  }

let now t = t.clock

let schedule_at t ?(daemon = false) ?(deferred = false) ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now=%d)" at t.clock);
  if daemon && deferred then invalid_arg "Engine.schedule_at: daemon and deferred are exclusive";
  let tagged =
    (t.seq lsl 2) lor (if deferred then 2 else 0) lor if daemon then 1 else 0
  in
  Eheap.add t.queue ~time:at ~seq:tagged f;
  if not daemon then t.normal_pending <- t.normal_pending + 1;
  t.seq <- t.seq + 1

let schedule_after t ?daemon ?deferred ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ?daemon ?deferred ~at:(t.clock + delay) f

(* The sharded façade: cross-node work is enqueued through [post], which a
   sharded driver can reroute into per-pair mailboxes (Shard).  With no
   router installed — the whole sequential world, and any sharded run at
   shard count 1 — [post] is exactly [schedule_after]: same queue, same
   sequence numbers, byte-identical schedules. *)
let set_router t r = t.router <- r
let router t = t.router

let post t ?(daemon = false) ?(deferred = false) ~src ~dst ~delay f =
  match t.router with
  | None ->
    ignore src;
    ignore dst;
    schedule_after t ~daemon ~deferred ~delay f
  | Some r -> r.route ~src ~dst ~daemon ~deferred ~delay f

let every t ?daemon ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock + period in
  let rec fire () = if f () then schedule_after t ?daemon ~delay:period fire in
  schedule_at t ?daemon ~at:first fire

(* Run the earliest event; the result says which class ran. *)
let step_kind t =
  if Eheap.is_empty t.queue then `Empty
  else begin
    let at = Eheap.min_time t.queue in
    let tag = Eheap.min_seq t.queue land 3 in
    let fn = Eheap.pop t.queue in
    t.clock <- at;
    t.processed <- t.processed + 1;
    if tag land 1 = 0 then t.normal_pending <- t.normal_pending - 1;
    fn ();
    match tag with 1 -> `Daemon | 2 -> `Deferred | _ -> `Normal
  end

let step t = step_kind t <> `Empty

let run ?limit t =
  match limit with
  | None ->
    t.inlining <- Option.is_none t.router;
    Fun.protect
      ~finally:(fun () -> t.inlining <- false)
      (fun () -> while t.normal_pending > 0 && step t do () done)
  | Some n ->
    (* The budget counts normal events only: daemons (periodic kernel
       chores) and deferred events (injected delays, retransmission
       timers) ride along free, so a limit measures application work, not
       how often the defrost daemon ticked or how many times the fault
       plane delayed an interrupt. *)
    let budget = ref n in
    while !budget > 0 && t.normal_pending > 0 do
      match step_kind t with
      | `Normal -> decr budget
      | `Daemon | `Deferred -> ()
      | `Empty -> budget := 0
    done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    if (not (Eheap.is_empty t.queue)) && Eheap.min_time t.queue <= horizon then
      ignore (step t)
    else continue := false
  done;
  if horizon > t.clock then t.clock <- horizon

let events_processed t = t.processed
let pending_events t = Eheap.size t.queue
let is_empty t = t.normal_pending = 0
let next_at t = if Eheap.is_empty t.queue then max_int else Eheap.min_time t.queue

let advance_inline t ~at =
  t.inlining
  && at >= t.clock
  && at < next_at t
  && begin
    t.clock <- at;
    t.seq <- t.seq + 1;
    t.processed <- t.processed + 1;
    true
  end

let checks_armed_by = function None | Some "" | Some "0" -> false | Some _ -> true
let env_checks_armed () = checks_armed_by (Sys.getenv_opt "PLATINUM_CHECK")
