(* The sharded peer of Engine: one simulation split into per-node
   engines, grouped into shards and advanced in parallel by OCaml 5
   domains under conservative time-window synchronization.

   Each node is one complete {!Engine.t} — in Parkernel, a whole
   per-node kernel.  The group installs an {!Engine.router} on every
   engine, so every [Engine.post] with [dst <> self] — kernel wakeups,
   protocol messages, block-transfer completions — crosses through a per-(src shard, dst shard) mailbox;
   self-posts stay engine-local.

   Determinism contract — byte-identical output at ANY shard count and ANY
   domain count:

   - Every cross-node message carries the key (time, src_node, src_seq),
     where src_seq is drawn from a per-node counter at posting time.  A
     node's counter is only ever advanced while one of that node's own
     events runs (or during single-domain setup), so the keys an execution
     produces are a pure function of the workload, not of the sharding.
   - Cross-node messages take the mailbox path even when src and dst share
     a shard (and even at shard count 1).  A destination engine assigns
     its internal sequence numbers as events arrive, so arrival order must
     be a pure function of the workload: mailboxes are drained in global
     (time, key) order at window boundaries, which is shard-count-
     independent, whereas a same-shard shortcut would interleave arrivals
     with the destination's own scheduling and make sequence assignment
     depend on the shard map.
   - A node's events touch only its own state, so a node's entire history
     is identical whatever shard it lives on, whoever drives that shard,
     and in whatever order the due nodes of one window run.

   Hosted runs are therefore byte-identical across every (shards,
   domains) — including (1, 1) — but follow a different (equally valid)
   schedule than the same kernels on one engine with no router; the
   no-router sequential world remains the golden oracle and is untouched
   by hosting.

   The conservative window: no event may affect another node sooner than
   [lookahead] ns (the machine's minimum cross-node latency — T_r, T_b and
   the IPI cost all bound it from above, Config.lookahead_ns).  Each round
   every shard may therefore run all events in [m, m + lookahead), where m
   is the global minimum pending timestamp: any cross-node event posted
   during the round lands at or after m + lookahead.  Rounds are separated
   by a barrier; mailboxes are written only in run phases and drained only
   in drain phases, so each buffer has one owner at a time and the barrier
   publishes it, with the window's end: the phases are built once a run.

   Packed keys: the drain's merge heap takes (src_node lsl 36) lor src_seq
   as its seq word.  With more than one node that exceeds Eheap's
   packed-seq range, so multi-node runs merge mail in Eheap's two-array
   fallback mode (covered by regression tests). *)

let node_seq_bits = 36
let max_node_seq = (1 lsl node_seq_bits) - 1

(* --- the domain pool ---

   A tiny phase barrier: the leader publishes a job (an index -> unit
   closure over shards) by bumping [round] after resetting the round's
   ticket counter; every participant — leader included — claims shard
   tickets until they run out, then the leader waits for all shards to be
   marked done.  Tickets are per-round-parity, so a straggler from the
   previous round can never steal a ticket that was already reset.
   Atomic operations provide the publication fences for the mailbox and
   heap state crossing domains. *)

type pool = {
  round : int Atomic.t;
  tickets : int Atomic.t array;  (* one per round parity *)
  done_shards : int Atomic.t;
  job : (int -> unit) ref;
  stop : bool Atomic.t;
}

let pool_create () =
  {
    round = Atomic.make 0;
    tickets = [| Atomic.make 0; Atomic.make 0 |];
    done_shards = Atomic.make 0;
    job = ref (fun _ -> ());
    stop = Atomic.make false;
  }

let claim_all pool ~nshards ~parity =
  let tickets = pool.tickets.(parity) in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add tickets 1 in
    if i >= nshards then continue := false
    else begin
      !(pool.job) i;
      Atomic.incr pool.done_shards
    end
  done

let worker pool ~nshards =
  let last = ref 0 in
  while not (Atomic.get pool.stop) do
    let r = Atomic.get pool.round in
    if r = !last then Domain.cpu_relax ()
    else begin
      last := r;
      claim_all pool ~nshards ~parity:(r land 1)
    end
  done

let leader_phase pool ~nshards f =
  let r = Atomic.get pool.round + 1 in
  pool.job := f;
  Atomic.set pool.done_shards 0;
  Atomic.set pool.tickets.(r land 1) 0;
  Atomic.set pool.round r;  (* publishes job + resets *)
  claim_all pool ~nshards ~parity:(r land 1);
  while Atomic.get pool.done_shards < nshards do Domain.cpu_relax () done

(* Drive [rounds] with [nshards]-wide phases on [domains] domains: one
   domain claims shards in order with no pool and no barriers; more spawn
   a worker pool.  The results are identical either way, by the key
   contract. *)
let drive ~domains ~nshards rounds =
  if domains < 1 then invalid_arg "Shard: domains must be >= 1";
  let ndomains = min domains nshards in
  if ndomains = 1 then
    rounds ~phase:(fun f ->
        for i = 0 to nshards - 1 do
          f i
        done)
  else begin
    let pool = pool_create () in
    let workers =
      Array.init (ndomains - 1) (fun _ -> Domain.spawn (fun () -> worker pool ~nshards))
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set pool.stop true;
        Array.iter Domain.join workers)
      (fun () -> rounds ~phase:(leader_phase pool ~nshards))
  end

(* Mailbox for one (src shard, dst shard) pair.  Written by the source
   shard during run phases, drained and cleared by the destination shard
   during drain phases; the inter-phase barrier transfers ownership, so no
   lock is ever taken. *)
type box = {
  mutable b_at : int array;
  mutable b_key : int array;
  mutable b_dst : int array;
  mutable b_fn : (unit -> unit) array;
  mutable b_len : int;
}

let nothing () = ()

let box_create () =
  {
    b_at = Array.make 8 0;
    b_key = Array.make 8 0;
    b_dst = Array.make 8 0;
    b_fn = Array.make 8 nothing;
    b_len = 0;
  }

let box_push b ~at ~key ~dst fn =
  let n = b.b_len in
  if n = Array.length b.b_at then begin
    let cap = 2 * n in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    b.b_at <- grow b.b_at 0;
    b.b_key <- grow b.b_key 0;
    b.b_dst <- grow b.b_dst 0;
    b.b_fn <- grow b.b_fn nothing
  end;
  b.b_at.(n) <- at;
  b.b_key.(n) <- key;
  b.b_dst.(n) <- dst;
  b.b_fn.(n) <- fn;
  b.b_len <- n + 1

(* One shard's wake index: which of its engines have work due.  [w_heap]
   holds (next event time, node) entries and is lazy — an entry is live
   only while it matches [h_next.(node)]; anything else is stale and
   skipped on the way out.  A node's head moves only when the node runs or
   when the drain delivers mail to it, and both places re-key it, so a
   window costs O(due nodes + mail) rather than O(nodes). *)
type wake = {
  w_heap : unit Eheap.t;  (* key (time, node); the node rides as the seq *)
  mutable w_live : int;  (* nodes with a non-daemon event pending *)
  mutable w_min : Time_ns.t;  (* live head after the last drain; max_int = none *)
  w_mail : int Eheap.t;  (* drain merge: key (at, key) -> slot (i * nshards + src) *)
}

type hosted = {
  h_engines : Engine.t array;
  h_nshards : int;
  h_lookahead : Time_ns.t;
  h_check : bool;
  h_node_shard : int array;
  h_node_seq : int array;  (* single-writer: the node's own events *)
  h_shard_nodes : int array array;  (* shard -> its nodes, ascending *)
  h_boxes : box array;  (* (src shard * nshards) + dst shard *)
  h_next : Time_ns.t array;  (* node -> its live wake-heap key; max_int = none *)
  h_wake : wake array;  (* shard -> its wake index *)
  mutable h_windows : int;
  mutable h_window_end : Time_ns.t;  (* exclusive end of the last window; 0 before *)
  mutable h_ran : bool;
}

(* The router for hosted engine [node]: self-posts keep their engine-local
   schedule; anything else draws a key from the node's counter and rides a
   mailbox.  Only [node]'s own events (or pre-run setup, which is
   single-domain) may reach this: the per-node counter is single-writer. *)
let hosted_route h ~node ~dst ~delay fn =
  let e = h.h_engines.(node) in
  if dst = node then Engine.schedule_after e ~delay fn
  else begin
    if dst < 0 || dst >= Array.length h.h_engines then
      invalid_arg (Printf.sprintf "Shard.host: post to unknown node %d" dst);
    if delay < h.h_lookahead then
      invalid_arg
        (Printf.sprintf "Shard.host: cross-node delay %d below lookahead %d" delay
           h.h_lookahead);
    let seq = h.h_node_seq.(node) in
    if seq > max_node_seq then invalid_arg "Shard.host: per-node sequence overflow";
    h.h_node_seq.(node) <- seq + 1;
    let key = (node lsl node_seq_bits) lor seq in
    let at = Engine.now e + delay in
    box_push
      h.h_boxes.((h.h_node_shard.(node) * h.h_nshards) + h.h_node_shard.(dst))
      ~at ~key ~dst fn
  end

let host ?check ~shards ~lookahead engines =
  let nodes = Array.length engines in
  if nodes < 1 then invalid_arg "Shard.host: need at least one engine";
  if shards < 1 then invalid_arg "Shard.host: shards must be >= 1";
  if lookahead < 1 then invalid_arg "Shard.host: lookahead must be >= 1";
  Array.iter
    (fun e ->
      if Engine.router e <> None then
        invalid_arg "Shard.host: an engine already has a router")
    engines;
  let check = match check with Some b -> b | None -> Engine.env_checks_armed () in
  let nshards = min shards nodes in
  let node_shard = Array.init nodes (fun n -> n * nshards / nodes) in
  let shard_nodes =
    Array.init nshards (fun sid ->
        let sel = ref [] in
        for n = nodes - 1 downto 0 do
          if node_shard.(n) = sid then sel := n :: !sel
        done;
        Array.of_list !sel)
  in
  let h =
    {
      h_engines = Array.copy engines;
      h_nshards = nshards;
      h_lookahead = lookahead;
      h_check = check;
      h_node_shard = node_shard;
      h_node_seq = Array.make nodes 0;
      h_shard_nodes = shard_nodes;
      h_boxes = Array.init (nshards * nshards) (fun _ -> box_create ());
      h_next = Array.make nodes max_int;
      h_wake =
        Array.map
          (fun mine ->
            {
              w_heap = Eheap.create ~capacity:(Array.length mine) ~dummy:() ();
              w_live = 0;
              w_min = max_int;
              w_mail = Eheap.create ~capacity:64 ~dummy:0 ();
            })
          shard_nodes;
      h_windows = 0;
      h_window_end = 0;
      h_ran = false;
    }
  in
  Array.iteri
    (fun node e ->
      Engine.set_router e
        (Some
           {
             Engine.route =
               (fun ~src:_ ~dst ~delay fn -> hosted_route h ~node ~dst ~delay fn);
           }))
    engines;
  h

let hosted_nodes h = Array.length h.h_engines
let hosted_shards h = h.h_nshards
let hosted_windows h = h.h_windows
let hosted_shard_of_node h node = h.h_node_shard.(node)

let hosted_events h =
  Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 h.h_engines

let hosted_clock h = Array.fold_left (fun acc e -> max acc (Engine.now e)) 0 h.h_engines

(* --- the wake index (each function touches only shard [sid]'s nodes) --- *)

(* Re-key [node] after its queue changed — it ran, or mail arrived: index
   its new head if that moved, and fold any liveness change into the
   shard's count. *)
let wake_rekey h w node ~was_live =
  let e = h.h_engines.(node) in
  let at = Engine.next_at e in
  if at <> h.h_next.(node) then begin
    h.h_next.(node) <- at;
    if at < max_int then Eheap.add w.w_heap ~time:at ~seq:node ()
  end;
  let live = not (Engine.is_empty e) in
  if live && not was_live then w.w_live <- w.w_live + 1
  else if was_live && not live then w.w_live <- w.w_live - 1

(* The earliest live key, popping stale entries off the top. *)
let rec wake_head h heap =
  if Eheap.is_empty heap then max_int
  else begin
    let at = Eheap.min_time heap in
    if h.h_next.(Eheap.min_seq heap) = at then at
    else begin
      Eheap.pop heap;
      wake_head h heap
    end
  end

(* Round 0: index shard [sid]'s engines as setup left them. *)
let hosted_index h sid =
  let w = h.h_wake.(sid) in
  let mine = h.h_shard_nodes.(sid) in
  for i = 0 to Array.length mine - 1 do
    wake_rekey h w mine.(i) ~was_live:false
  done

(* The run phase: pop every node whose head falls before [h_window_end]
   off the index, run it to the window's end and re-key it.  Nodes run in
   pop order: a node's events touch only its own state and the drain
   merges mail by (at, key), so the order cannot change the output.  A
   re-keyed head lands at or past the window's end, so no node is popped
   twice.  Nodes with nothing due are not touched; their clocks lag until
   {!run_hosted} brings them level. *)
let hosted_run h sid =
  let window_end = h.h_window_end in
  let w = h.h_wake.(sid) in
  while (not (Eheap.is_empty w.w_heap)) && Eheap.min_time w.w_heap < window_end do
    let at = Eheap.min_time w.w_heap in
    let node = Eheap.min_seq w.w_heap in
    Eheap.pop w.w_heap;
    if h.h_next.(node) = at then begin
      let e = h.h_engines.(node) in
      let was_live = not (Engine.is_empty e) in
      (* run_until is inclusive; windows are [m, window_end). *)
      Engine.run_until e (window_end - 1);
      wake_rekey h w node ~was_live
    end
  done

(* Deliver shard [sid]'s incoming mail.  Entries from every source shard
   merge through [w_mail] in (time, key) order — keys are unique, so the
   order is total — and each destination engine therefore assigns its
   internal sequence numbers in an order that is a pure function of the
   workload: the crux of hosted determinism (see the header).  Each
   delivery re-keys its destination; the drain ends by publishing the
   shard's live head. *)
let hosted_drain h sid =
  let n = h.h_nshards in
  let w = h.h_wake.(sid) in
  for src = 0 to n - 1 do
    let b = h.h_boxes.((src * n) + sid) in
    for i = 0 to b.b_len - 1 do
      Eheap.add w.w_mail ~time:b.b_at.(i) ~seq:b.b_key.(i) ((i * n) + src)
    done
  done;
  while not (Eheap.is_empty w.w_mail) do
    let at = Eheap.min_time w.w_mail in
    let slot = Eheap.pop w.w_mail in
    let b = h.h_boxes.(((slot mod n) * n) + sid) in
    let i = slot / n in
    let dst = b.b_dst.(i) and fn = b.b_fn.(i) in
    b.b_fn.(i) <- nothing;
    (* Posted in the window that just closed, so due at or after its end. *)
    if h.h_check && at < h.h_window_end then
      failwith
        (Printf.sprintf
           "Shard.host check: mailbox delivery at %d to node %d before window end %d \
            (window violation)"
           at dst h.h_window_end);
    let e = h.h_engines.(dst) in
    let was_live = not (Engine.is_empty e) in
    Engine.schedule_at e ~at fn;
    wake_rekey h w dst ~was_live
  done;
  for src = 0 to n - 1 do
    h.h_boxes.((src * n) + sid).b_len <- 0
  done;
  w.w_min <- wake_head h w.w_heap

(* The run and drain phases are built once; each round publishes its
   window's end in [h_window_end] before the run phase reads it. *)
let hosted_rounds h ~phase =
  (* Round 0 indexes the engines and folds in anything posted during setup. *)
  phase (fun sid ->
      hosted_index h sid;
      hosted_drain h sid);
  let run sid = hosted_run h sid and drain sid = hosted_drain h sid in
  while Array.fold_left (fun acc w -> acc + w.w_live) 0 h.h_wake > 0 do
    let m = Array.fold_left (fun acc w -> min acc w.w_min) max_int h.h_wake in
    (* a live node has a normal event pending, hence a live key *)
    assert (m < max_int);
    h.h_window_end <- m + h.h_lookahead;
    h.h_windows <- h.h_windows + 1;
    phase run;
    phase drain
  done

let run_hosted ?(domains = 1) h =
  if h.h_ran then invalid_arg "Shard.run_hosted: already ran";
  h.h_ran <- true;
  drive ~domains ~nshards:h.h_nshards (fun ~phase -> hosted_rounds h ~phase);
  (* Skipped engines still sit at their last event: bring every clock to
     the final window's end, where a scan of all engines would leave it. *)
  Array.iter (fun e -> Engine.run_until e (h.h_window_end - 1)) h.h_engines
