(* The event queue is an array-backed binary min-heap (Eheap) keyed by
   (time, tagged seq).  The sequence number makes simultaneous events run
   in scheduling order, which keeps runs deterministic; its low bit
   carries the event class (seq is unique per event, so tagging the low
   bit never reorders anything).  Scheduling allocates nothing itself:
   an event is the caller's closure, stored in the heap's slot.  The
   kernel's resumes and dispatches post closures it built once per
   thread and per processor, so they allocate no event at all.

   Two classes:
   - normal: application work and its timers; keeps {!run} alive;
   - daemon: periodic kernel chores; does not keep the run alive.

   Inline steps: inside [run] on an engine with no router,
   [advance_inline] lets the current event stand in for a normal event
   that would be the very next one popped — due strictly before every
   pending event — by advancing the clock and counting the step
   ([processed] and [seq]) exactly as the pop would have, so the caller
   runs the work in place with no closure and no heap round trip. *)

let nothing () = ()

type router = { route : dst:int -> delay:Time_ns.t -> (unit -> unit) -> unit }

type t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  queue : (unit -> unit) Eheap.t;
  mutable processed : int;
  mutable normal_pending : int;  (* non-daemon events queued *)
  mutable router : router option;  (* the sharded façade's cross-node hook *)
  mutable inlining : bool;  (* inside an unrouted [run] *)
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

let schedule_at t ?(daemon = false) ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now=%d)" at t.clock);
  Eheap.add t.queue ~time:at ~seq:((t.seq lsl 1) lor if daemon then 1 else 0) f;
  if not daemon then t.normal_pending <- t.normal_pending + 1;
  t.seq <- t.seq + 1

let schedule_after t ?daemon ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ?daemon ~at:(t.clock + delay) f

(* The sharded façade: cross-node work is enqueued through [post], which a
   sharded driver can reroute into per-pair mailboxes (Shard).  With no
   router installed — the whole sequential world, and any sharded run at
   shard count 1 — [post] is exactly [schedule_after]: same queue, same
   sequence numbers, byte-identical schedules. *)
let set_router t r = t.router <- r
let router t = t.router

let post t ~dst ~delay f =
  match t.router with
  | None ->
    ignore dst;
    schedule_after t ~delay f
  | Some r -> r.route ~dst ~delay f

let every t ?daemon ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock + period in
  let rec fire () = if f () then schedule_after t ?daemon ~delay:period fire in
  schedule_at t ?daemon ~at:first fire

(* Run the earliest event; [false] when the queue was empty. *)
let step t =
  (not (Eheap.is_empty t.queue))
  && begin
    let at = Eheap.min_time t.queue in
    let daemon = Eheap.min_seq t.queue land 1 = 1 in
    let fn = Eheap.pop t.queue in
    t.clock <- at;
    t.processed <- t.processed + 1;
    if not daemon then t.normal_pending <- t.normal_pending - 1;
    fn ();
    true
  end

let run t =
  t.inlining <- Option.is_none t.router;
  Fun.protect
    ~finally:(fun () -> t.inlining <- false)
    (fun () -> while t.normal_pending > 0 && step t do () done)

let run_until t horizon =
  while (not (Eheap.is_empty t.queue)) && Eheap.min_time t.queue <= horizon do
    ignore (step t : bool)
  done;
  if horizon > t.clock then t.clock <- horizon

let events_processed t = t.processed
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
