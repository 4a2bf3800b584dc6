(* The home protocol of the hosted kernel (DESIGN.md §4j).

   Coherence-visible state is partitioned by home node: every page has
   one home; the home holds the authoritative data, the holder set and
   the page version, and is the only node that ever mutates them.  Remote
   reads replicate a page copy to the reader; writes and read-modify-
   writes always execute at the home, shooting down replicas first
   (invalidation IPIs with ack-timeout retry, exactly the §3.3 protocol
   shape).  Every one of those protocol steps crosses nodes as an
   {!Platinum_sim.Engine.post}, which the hosted router turns into a
   mailbox message — no node ever touches another node's state directly,
   which is both the determinism argument and the domain-safety argument.

   Latency model: a message's network transit is the uncontended word (or
   IPI) cost for the hop it takes; service at the home is charged against
   the home module's queue ({!Platinum_machine.Xbar.access}, which touches
   only the target module — the single-writer rule holds because module i
   is only ever served by node i's events).  Request messages can be
   dropped by the sender's fault plane ({!Platinum_sim.Inject.rpc_drop})
   and are retransmitted on a backoff timer; invalidation IPIs go through
   {!Platinum_sim.Inject.ipi_fault} with the bounded-adversary guarantee
   that the final attempt always delivers.

   Page tables on both sides are chunked {!Platinum_core.Flat} tables and
   home page data arrays are allocated on first touch, so resident memory
   is proportional to the touched footprint, not the address span. *)

module Engine = Platinum_sim.Engine
module Inject = Platinum_sim.Inject
module Config = Platinum_machine.Config
module Xbar = Platinum_machine.Xbar
module Memmodule = Platinum_machine.Memmodule
module Memtxn = Platinum_core.Memtxn
module Flat = Platinum_core.Flat
module Frame = Platinum_phys.Frame
module Memsys = Platinum_kernel.Memsys

let word_mask = 0xFFFFFFFF

type counters = {
  mutable reads : int;
  mutable writes : int;
  mutable local_hits : int;
  mutable remote_ops : int;
  mutable replications : int;
  mutable discards : int;
  mutable invalidations : int;
  mutable shootdowns : int;
  mutable ipis : int;
  mutable retrans : int;
  mutable words : int;
  mutable snapshots : int;
}

(* One request queued (or in flight) for service at a page's home. *)
type pend = {
  p_txn : Memtxn.t;
  p_src : int;
  p_page : int;
  p_complete : delay:int -> int -> unit;  (* runs on [p_src]'s engine *)
}

(* Home-side page record: authoritative data, holder set, version.  [busy]
   marks a shootdown in flight — arriving requests queue behind it, which
   serializes all traffic on the page for the duration (the home is the
   page's serialization point, as the Cmap is in the real kernel). *)
type hpage = {
  mutable hdata : int array;  (* [||] until first touch *)
  mutable hversion : int;
  mutable hsnap : int array;  (* the copy every reader of [hsnap_version] shares *)
  mutable hsnap_version : int;  (* -1: none *)
  hholders : Bytes.t;
  mutable nholders : int;
  mutable hbusy : bool;
  hwaiting : pend Queue.t;
}

type node = {
  engine : Engine.t;
  inject : Inject.t option;
  homes : hpage Flat.t;  (* vpage -> home record, for pages homed here *)
  replicas : int array Flat.t;  (* vpage -> read copy installed here *)
  pfloor : int Flat.t;  (* vpage -> newest version invalidated here *)
  c : counters;
}

type t = {
  cfg : Config.t;
  mods : Memmodule.t array;
  nodes : node array;
  home_of : int -> int;  (* vpage -> home node *)
  pw : int;  (* words per page *)
  shift : int;  (* {!Phys_mem.page_shift} of [pw] *)
  la : int;  (* conservative lookahead, ns *)
}

let create (cfg : Config.t) mods ~engines ~injects ~home_of =
  let node engine inject =
    {
      engine;
      inject;
      homes = Flat.create ();
      replicas = Flat.create ();
      pfloor = Flat.create ();
      c =
        {
          reads = 0;
          writes = 0;
          local_hits = 0;
          remote_ops = 0;
          replications = 0;
          discards = 0;
          invalidations = 0;
          shootdowns = 0;
          ipis = 0;
          retrans = 0;
          words = 0;
          snapshots = 0;
        };
    }
  in
  {
    cfg;
    mods;
    nodes = Array.map2 node engines injects;
    home_of;
    pw = cfg.Config.page_words;
    shift = Platinum_phys.Phys_mem.page_shift cfg.Config.page_words;
    la = Config.lookahead_ns cfg;
  }

(* --- message timing --- *)

let net_delay t ~src ~dst =
  Int.max t.la (Xbar.uncontended_word_ns t.cfg Xbar.Read ~hop:(Config.hop t.cfg ~src ~dst))

let ipi_delay t ~src ~dst = Int.max t.la (Xbar.ipi_ns t.cfg ~hop:(Config.hop t.cfg ~src ~dst))

(* --- transaction shape --- *)

let[@inline] vpage t vaddr = Platinum_phys.Phys_mem.vpage ~shift:t.shift ~page_words:t.pw vaddr

(* The one-page restriction: a distributed transaction must fall within a
   single page so it has a single home.  Strides and page-straddling
   blocks are declined (the workloads never issue them; a caller that does
   gets the synchronous path's [Invalid_argument]), and so is a
   zero-length block, which the synchronous path completes at no cost.
   The page, or -1 to decline. *)
let txn_page t = function
  | Memtxn.Read { vaddr } | Memtxn.Write { vaddr; _ } | Memtxn.Rmw { vaddr; _ } -> vpage t vaddr
  | Memtxn.Block_read { vaddr; len; _ } | Memtxn.Block_write { vaddr; len; _ } ->
    let page = vpage t vaddr in
    if len >= 1 && page = vpage t (vaddr + len - 1) then page else -1
  | Memtxn.Stride_read _ | Memtxn.Stride_write _ -> -1

(* Complete a read from page data [arr] into the requester's slice, on the
   requesting node only: a home never writes into another node's buffer. *)
let read_result t arr page = function
  | Memtxn.Read { vaddr } -> arr.(vaddr - (page * t.pw))
  | Memtxn.Block_read { vaddr; dst; dst_off; len } ->
    Frame.copy_words arr (vaddr - (page * t.pw)) dst dst_off len;
    0
  | _ -> assert false

(* A read node [s] serves from its own memory, the home's page or a
   replica alike: charged against [s]'s own module, completed [max 1 lat]
   ns later from page data [arr]. *)
let local_read t s arr page txn ~complete =
  let ns = t.nodes.(s) in
  let now = Engine.now ns.engine in
  let words = Memtxn.data_words txn in
  let lat =
    Xbar.access ?inject:ns.inject t.cfg t.mods ~now ~proc:s ~mem_module:s Xbar.Read ~words
  in
  ns.c.words <- ns.c.words + words;
  complete ~delay:(Int.max 1 lat) (read_result t arr page txn)

(* --- home-side service --- *)

let get_hpage t h page =
  let nh = t.nodes.(h) in
  match Flat.find nh.homes page with
  | Some hp -> hp
  | None ->
    let hp =
      {
        hdata = [||];
        hversion = 0;
        hsnap = [||];
        hsnap_version = -1;
        hholders = Bytes.make (Array.length t.nodes) '\000';
        nholders = 0;
        hbusy = false;
        hwaiting = Queue.create ();
      }
    in
    Flat.set nh.homes page hp;
    hp

let ensure_data t hp = if Array.length hp.hdata = 0 then hp.hdata <- Array.make t.pw 0

(* Grant a page copy to a remote reader.  The holder bit is set at grant
   time; the copy installs at the reader when the reply lands.  A
   shootdown racing ahead of the reply is caught by the version floor:
   the IPI records the newest invalidated version at the target, and an
   arriving copy at or below the floor is discarded instead of installed
   (the read itself still completes — it is ordered before the write).
   Replicas are never written, so readers of one version share one copy. *)
let grant_copy t h hp p =
  let nh = t.nodes.(h) in
  let now = Engine.now nh.engine in
  let lat =
    Xbar.access ?inject:nh.inject t.cfg t.mods ~now ~proc:p.p_src ~mem_module:h Xbar.Read
      ~words:t.pw
  in
  let version = hp.hversion in
  if hp.hsnap_version <> version then begin
    hp.hsnap <- Array.copy hp.hdata;
    hp.hsnap_version <- version;
    nh.c.snapshots <- nh.c.snapshots + 1
  end;
  let snapshot = hp.hsnap in
  if Bytes.get hp.hholders p.p_src = '\000' then begin
    Bytes.set hp.hholders p.p_src '\001';
    hp.nholders <- hp.nholders + 1
  end;
  let delay = Int.max (net_delay t ~src:h ~dst:p.p_src) lat in
  Engine.post nh.engine ~dst:p.p_src ~delay (fun () ->
      let ns = t.nodes.(p.p_src) in
      let floor = match Flat.find ns.pfloor p.p_page with Some f -> f | None -> -1 in
      if version > floor then begin
        Flat.set ns.replicas p.p_page snapshot;
        ns.c.replications <- ns.c.replications + 1;
        ns.c.words <- ns.c.words + t.pw
      end
      else ns.c.discards <- ns.c.discards + 1;
      p.p_complete ~delay:0 (read_result t snapshot p.p_page p.p_txn))

let rec home_serve t h p =
  let hp = get_hpage t h p.p_page in
  if hp.hbusy then Queue.push p hp.hwaiting
  else begin
    ensure_data t hp;
    match p.p_txn with
    | Memtxn.Read _ | Memtxn.Block_read _ ->
      (* the home reads its own page in place; no replica involved *)
      if p.p_src = h then local_read t h hp.hdata p.p_page p.p_txn ~complete:p.p_complete
      else grant_copy t h hp p
    | Memtxn.Write _ | Memtxn.Rmw _ | Memtxn.Block_write _ ->
      if hp.nholders = 0 then apply_write t h hp p else start_shootdown t h hp p
    | Memtxn.Stride_read _ | Memtxn.Stride_write _ -> assert false
  end

(* Apply a write/rmw at the home and send the completion back.  Charged
   against the home module's queue with the requester as the issuing
   processor, so remote writes pay the remote-hop word costs. *)
and apply_write t h hp p =
  let nh = t.nodes.(h) in
  let now = Engine.now nh.engine in
  let base = p.p_page * t.pw in
  let kind, words, res =
    match p.p_txn with
    | Memtxn.Write { vaddr; value } ->
      hp.hdata.(vaddr - base) <- value land word_mask;
      (Xbar.Write, 1, 0)
    | Memtxn.Rmw { vaddr; f } ->
      let old = hp.hdata.(vaddr - base) in
      hp.hdata.(vaddr - base) <- f old land word_mask;
      (Xbar.Rmw, 1, old)
    | Memtxn.Block_write { vaddr; src; src_off; len } ->
      for i = 0 to len - 1 do
        hp.hdata.(vaddr - base + i) <- src.(src_off + i) land word_mask
      done;
      (Xbar.Write, len, 0)
    | _ -> assert false
  in
  hp.hversion <- hp.hversion + 1;
  let lat =
    Xbar.access ?inject:nh.inject t.cfg t.mods ~now ~proc:p.p_src ~mem_module:h kind ~words
  in
  nh.c.words <- nh.c.words + words;
  if p.p_src = h then p.p_complete ~delay:(Int.max 1 lat) res
  else
    Engine.post nh.engine ~dst:p.p_src ~delay:(Int.max (net_delay t ~src:h ~dst:p.p_src) lat)
      (fun () -> p.p_complete ~delay:0 res)

(* Invalidate every replica before a write: one IPI per holder, acks ride
   back as messages, the page queues everything until the last ack.  IPI
   drops retry on the ack-timeout backoff; the plane's bounded adversary
   delivers the final attempt, so shootdowns always complete. *)
and start_shootdown t h hp p =
  let nh = t.nodes.(h) in
  nh.c.shootdowns <- nh.c.shootdowns + 1;
  hp.hbusy <- true;
  let vfloor = hp.hversion in
  let targets = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if Bytes.get hp.hholders i = '\001' then targets := i :: !targets
  done;
  let expected = List.length !targets in
  let acks = ref 0 in
  let on_ack () =
    incr acks;
    if !acks = expected then begin
      Bytes.fill hp.hholders 0 (Bytes.length hp.hholders) '\000';
      hp.nholders <- 0;
      hp.hbusy <- false;
      apply_write t h hp p;
      drain_waiting t h hp
    end
  in
  List.iter (fun i -> send_ipi t h ~target:i ~page:p.p_page ~vfloor ~attempt:0 ~on_ack) !targets

and send_ipi t h ~target ~page ~vfloor ~attempt ~on_ack =
  let nh = t.nodes.(h) in
  nh.c.ipis <- nh.c.ipis + 1;
  let verdict =
    match nh.inject with Some inj -> Inject.ipi_fault inj ~attempt | None -> `Deliver
  in
  match verdict with
  | `Drop ->
    (match nh.inject with
    | Some inj ->
      Inject.note_shootdown_retry inj;
      Engine.schedule_after nh.engine ~delay:(Inject.ack_timeout ~attempt)
        (fun () -> send_ipi t h ~target ~page ~vfloor ~attempt:(attempt + 1) ~on_ack)
    | None -> assert false (* a plane-free run never drops *))
  | (`Deliver | `Delay _) as d ->
    let extra = match d with `Delay ns -> ns | `Deliver -> 0 in
    Engine.post nh.engine ~dst:target ~delay:(ipi_delay t ~src:h ~dst:target + extra)
      (fun () ->
        let nt = t.nodes.(target) in
        (match Flat.find nt.replicas page with
        | Some _ ->
          Flat.remove nt.replicas page;
          nt.c.invalidations <- nt.c.invalidations + 1
        | None -> ());
        let floor = match Flat.find nt.pfloor page with Some f -> f | None -> -1 in
        if vfloor > floor then Flat.set nt.pfloor page vfloor;
        Engine.post nt.engine ~dst:h ~delay:(net_delay t ~src:target ~dst:h)
          (fun () -> on_ack ()))

and drain_waiting t h hp =
  while (not hp.hbusy) && not (Queue.is_empty hp.hwaiting) do
    home_serve t h (Queue.pop hp.hwaiting)
  done

(* --- requester side --- *)

(* Send a request to a remote home.  The sender's fault plane may drop it
   ([rpc_drop]); recovery is the retransmission timer with exponential
   backoff, and the plane forces delivery on the final attempt. *)
let rec send_request t s h p ~attempt =
  let ns = t.nodes.(s) in
  let dropped = match ns.inject with Some inj -> Inject.rpc_drop inj ~attempt | None -> false in
  if dropped then begin
    ns.c.retrans <- ns.c.retrans + 1;
    match ns.inject with
    | Some inj ->
      Inject.note_rpc_retry inj;
      Engine.schedule_after ns.engine ~delay:(Inject.rpc_retrans ~attempt)
        (fun () -> send_request t s h p ~attempt:(attempt + 1))
    | None -> assert false
  end
  else
    Engine.post ns.engine ~dst:h ~delay:(net_delay t ~src:s ~dst:h) (fun () ->
        home_serve t h p)

(* The {!Memsys.remote} hook for node [s]: adopt every valid single-page
   transaction and serve it through the protocol; decline the rest so the
   synchronous path reports the error.  A replica hit completes at once
   through [complete ~delay]; only a request sent to or served at a home
   builds its [pend]. *)
let try_remote t s txn ~complete =
  match Memtxn.validate txn with
  | exception _ -> false
  | () ->
    let page = txn_page t txn in
    if page < 0 then false
    else begin
      let ns = t.nodes.(s) in
      let h = t.home_of page in
      let is_read = match txn with Memtxn.Read _ | Memtxn.Block_read _ -> true | _ -> false in
      if is_read then ns.c.reads <- ns.c.reads + 1 else ns.c.writes <- ns.c.writes + 1;
      (if h = s then begin
         ns.c.local_hits <- ns.c.local_hits + 1;
         home_serve t s { p_txn = txn; p_src = s; p_page = page; p_complete = complete }
       end
       else
         match if is_read then Flat.find ns.replicas page else None with
         | Some r ->
           (* steady-state hit: served from the local copy *)
           ns.c.local_hits <- ns.c.local_hits + 1;
           local_read t s r page txn ~complete
         | None ->
           ns.c.remote_ops <- ns.c.remote_ops + 1;
           send_request t s h { p_txn = txn; p_src = s; p_page = page; p_complete = complete }
             ~attempt:0);
      true
    end

(* --- the per-node memory system --- *)

let memsys t s ~arena_base ~arena_words =
  let next = ref arena_base in
  let alloc ~zone:_ ~words ~page_aligned =
    let a = if page_aligned then (!next + t.pw - 1) / t.pw * t.pw else !next in
    if a + words > arena_base + arena_words then failwith "Parkernel: node arena exhausted";
    next := a + words;
    a
  in
  {
    Memsys.page_words = t.pw;
    submit =
      (fun ~now:_ ~proc:_ ~aspace:_ txn ->
        Memtxn.validate txn;
        if Memtxn.data_words txn = 0 then 0
        else
          invalid_arg
            "Parkernel: stride and page-straddling transactions are not supported on \
             distributed memory");
    value = ref 0;
    new_aspace = (fun () -> invalid_arg "Parkernel: one address space per machine");
    new_zone = (fun ~aspace:_ ~name:_ ~pages:_ -> 0);
    alloc;
    new_segment = (fun ~name:_ ~pages:_ -> invalid_arg "Parkernel: no segments");
    map_segment = (fun ~aspace:_ ~segment:_ -> invalid_arg "Parkernel: no segments");
    advise = (fun ~now:_ ~proc:_ ~aspace:_ ~vaddr:_ ~len:_ _ -> 0);
    migrate_cost = (fun ~now:_ ~from_proc:_ ~to_proc:_ -> t.cfg.Config.thread_migrate_ns);
    fastpath = None;
    remote =
      Some
        {
          Memsys.try_remote =
            (fun ~now:_ ~proc:_ ~aspace:_ txn ~complete -> try_remote t s txn ~complete);
        };
  }

(* --- the host's view: setup image, read-back, at-rest check --- *)

let load t ~addr words =
  let page = vpage t addr in
  let hp = get_hpage t (t.home_of page) page in
  ensure_data t hp;
  hp.hsnap_version <- -1;
  Array.blit words 0 hp.hdata (addr - (page * t.pw)) (Array.length words)

let home_words t page =
  match Flat.find t.nodes.(t.home_of page).homes page with
  | Some hp when Array.length hp.hdata > 0 -> hp.hdata
  | Some _ | None -> Array.make t.pw 0

(* Quiescence: every resident replica is still in its home's holder set
   and equal to the home's words, and no home is mid-shootdown or holds
   queued requests.  Lookups only, so no home record is created. *)
let at_rest_ok t =
  let ok = ref true in
  Array.iteri
    (fun s nd ->
      Flat.iter
        (fun page r ->
          match Flat.find t.nodes.(t.home_of page).homes page with
          | Some hp ->
            if
              Bytes.get hp.hholders s = '\000'
              || Array.length r <> Array.length hp.hdata
              || not (Array.for_all2 Int.equal r hp.hdata)
            then ok := false
          | None -> ok := false)
        nd.replicas;
      Flat.iter
        (fun _ hp -> if hp.hbusy || not (Queue.is_empty hp.hwaiting) then ok := false)
        nd.homes)
    t.nodes;
  !ok

let counters t s = t.nodes.(s).c

let fold_homes t s f acc =
  let acc = ref acc in
  Flat.iter (fun page hp -> acc := f page hp.hversion hp.hdata !acc) t.nodes.(s).homes;
  !acc

let touched_pages t =
  let k = ref 0 in
  for s = 0 to Array.length t.nodes - 1 do
    k := fold_homes t s (fun _ _ words k -> if Array.length words > 0 then k + 1 else k) !k
  done;
  !k
