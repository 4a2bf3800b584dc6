(* The PLATINUM kernel itself on the sharded engine: one complete kernel
   simulation per node — its own {!Platinum_sim.Engine}, its own
   {!Platinum_kernel.Kernel} over a one-processor run-queue slice, its own
   fault sub-plane — advanced in parallel by {!Platinum_sim.Shard.host}.

   Coherence-visible state is partitioned by home node (DESIGN.md §4j):
   every page has one home; the home holds the authoritative data, the
   holder set and the page version, and is the only node that ever mutates
   them.  Remote reads replicate a page copy to the reader; writes and
   read-modify-writes always execute at the home, shooting down replicas
   first (invalidation IPIs with ack-timeout retry, exactly the §3.3
   protocol shape).  Every one of those protocol steps crosses nodes as an
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

   Address spaces are GB-scale and sparse: page tables on both sides are
   chunked {!Platinum_core.Flat} tables and home page data arrays are
   allocated on first touch, so resident memory is proportional to the
   touched footprint, not the address span. *)

module Engine = Platinum_sim.Engine
module Shard = Platinum_sim.Shard
module Inject = Platinum_sim.Inject
module Rng = Platinum_sim.Rng
module Fnv = Platinum_sim.Fnv
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Xbar = Platinum_machine.Xbar
module Memmodule = Platinum_machine.Memmodule
module Memtxn = Platinum_core.Memtxn
module Flat = Platinum_core.Flat
module Memsys = Platinum_kernel.Memsys
module Kernel = Platinum_kernel.Kernel
module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type workload =
  | Jacobi
  | Gauss
  | Rpc_echo
  | Program of (node:int -> row:(int -> int) -> rng:Rng.t -> unit)

let workload_name = function
  | Jacobi -> "jacobi"
  | Gauss -> "gauss"
  | Rpc_echo -> "rpc_echo"
  | Program _ -> "program"

let all_workloads = [ Jacobi; Gauss; Rpc_echo ]
let lookahead = Config.lookahead_ns

(* --- address-space layout ---

   Low pages are the shared control region (barrier words), homed at node
   0.  The data region starts at [data_base_page]; workload row [r] lives
   at page [data_base_page + r * spages], homed at node [r mod n] — with
   [spages] > 1 the rows spread over an address span far larger than the
   touched footprint (the GB-scale variant).  Each node's private bump
   arena sits above the data region. *)

let data_base_page = 8
let arena_pages_per_node = 4096
let word_mask = 0xFFFFFFFF

(* --- per-node protocol state --- *)

type counters = {
  mutable reads : int;  (* completed read transactions *)
  mutable writes : int;  (* completed write/rmw transactions *)
  mutable local_hits : int;  (* served from a replica or the own home *)
  mutable remote_ops : int;  (* requests sent to another node *)
  mutable replications : int;  (* page copies installed here *)
  mutable discards : int;  (* in-flight copies discarded as stale *)
  mutable invalidations : int;  (* replicas shot down here *)
  mutable shootdowns : int;  (* invalidation rounds initiated at this home *)
  mutable ipis : int;  (* IPI send attempts from this home *)
  mutable retrans : int;  (* dropped requests retransmitted *)
  mutable rpcs : int;  (* completed echo round trips (client side) *)
  mutable words : int;  (* data words moved for this node's traffic *)
}

let make_counters () =
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
    rpcs = 0;
    words = 0;
  }

(* One request queued (or in flight) for service at a page's home. *)
type pend = {
  p_txn : Memtxn.t;
  p_src : int;
  p_page : int;
  p_complete : Memtxn.result -> unit;  (* runs on [p_src]'s engine *)
}

(* Home-side page record: authoritative data, holder set, version.  [busy]
   marks a shootdown in flight — arriving requests queue behind it, which
   serializes all traffic on the page for the duration (the home is the
   page's serialization point, as the Cmap is in the real kernel). *)
type hpage = {
  mutable hdata : int array;  (* [||] until first touch *)
  mutable hversion : int;
  hholders : Bytes.t;
  mutable nholders : int;
  mutable hbusy : bool;
  hwaiting : pend Queue.t;
}

type replica = { rdata : int array }

type node = {
  id : int;
  engine : Engine.t;
  rng : Rng.t;  (* consumed only by a [Program] thread on this node *)
  mutable kernel : Kernel.t option;
  inject : Inject.t option;
  homes : hpage Flat.t;  (* vpage -> home record, for pages homed here *)
  replicas : replica Flat.t;  (* vpage -> read copy installed here *)
  pfloor : int Flat.t;  (* vpage -> newest version invalidated here *)
  c : counters;
  mutable arena_next : int;
}

type pm = {
  cfg : Config.t;
  machine : Machine.t;
  mods : Memmodule.t array;
  nodes : node array;
  home_of : int -> int;  (* vpage -> home node *)
  pw : int;  (* words per page *)
  la : int;  (* conservative lookahead, ns *)
}

(* --- message timing --- *)

let net_delay pm ~src ~dst =
  max pm.la (Xbar.uncontended_word_ns pm.cfg Xbar.Read ~hop:(Config.hop pm.cfg ~src ~dst))

let ipi_delay pm ~src ~dst = max pm.la (Xbar.ipi_ns pm.cfg ~hop:(Config.hop pm.cfg ~src ~dst))

(* --- transaction shape --- *)

(* The one-page restriction: a distributed transaction must fall within a
   single page so it has a single home.  Strides and page-straddling
   blocks are declined (the workloads never issue them; a caller that does
   gets the synchronous path's [Invalid_argument]), and so is a
   zero-length block, which the synchronous path completes at no cost. *)
let txn_page pm = function
  | Memtxn.Read { vaddr } | Memtxn.Write { vaddr; _ } | Memtxn.Rmw { vaddr; _ } ->
    Some (vaddr / pm.pw)
  | Memtxn.Block_read { vaddr; len; _ } | Memtxn.Block_write { vaddr; len; _ } ->
    if len >= 1 && vaddr / pm.pw = (vaddr + len - 1) / pm.pw then Some (vaddr / pm.pw)
    else None
  | Memtxn.Stride_read _ | Memtxn.Stride_write _ -> None

(* Complete a read from page data [arr] into the requester's slice, on the
   requesting node only: a home never writes into another node's buffer.
   A typed loop: the slice may have been promoted while its thread waited,
   and [Array.blit] into the major heap pays the write barrier per word. *)
let read_result pm arr page = function
  | Memtxn.Read { vaddr } -> Memtxn.Word arr.(vaddr - (page * pm.pw))
  | Memtxn.Block_read { vaddr; dst; dst_off; len } ->
    for i = 0 to len - 1 do dst.(dst_off + i) <- arr.(vaddr - (page * pm.pw) + i) done;
    Memtxn.Unit
  | _ -> assert false

(* --- home-side service --- *)

let get_hpage pm h page =
  let nh = pm.nodes.(h) in
  match Flat.find nh.homes page with
  | Some hp -> hp
  | None ->
    let hp =
      {
        hdata = [||];
        hversion = 0;
        hholders = Bytes.make (Array.length pm.nodes) '\000';
        nholders = 0;
        hbusy = false;
        hwaiting = Queue.create ();
      }
    in
    Flat.set nh.homes page hp;
    hp

let ensure_data pm hp = if Array.length hp.hdata = 0 then hp.hdata <- Array.make pm.pw 0

(* Grant a page copy to a remote reader.  The holder bit is set at grant
   time; the copy installs at the reader when the reply lands.  A
   shootdown racing ahead of the reply is caught by the version floor:
   the IPI records the newest invalidated version at the target, and an
   arriving copy at or below the floor is discarded instead of installed
   (the read itself still completes — it is ordered before the write). *)
let grant_copy pm h hp p =
  let nh = pm.nodes.(h) in
  let now = Engine.now nh.engine in
  let lat =
    Xbar.access ?inject:nh.inject pm.cfg pm.mods ~now ~proc:p.p_src ~mem_module:h Xbar.Read
      ~words:pm.pw
  in
  let snapshot = Array.copy hp.hdata in
  let version = hp.hversion in
  if Bytes.get hp.hholders p.p_src = '\000' then begin
    Bytes.set hp.hholders p.p_src '\001';
    hp.nholders <- hp.nholders + 1
  end;
  let delay = max (net_delay pm ~src:h ~dst:p.p_src) lat in
  Engine.post nh.engine ~src:h ~dst:p.p_src ~delay (fun () ->
      let ns = pm.nodes.(p.p_src) in
      let floor = match Flat.find ns.pfloor p.p_page with Some f -> f | None -> -1 in
      if version > floor then begin
        Flat.set ns.replicas p.p_page { rdata = snapshot };
        ns.c.replications <- ns.c.replications + 1;
        ns.c.words <- ns.c.words + pm.pw
      end
      else ns.c.discards <- ns.c.discards + 1;
      p.p_complete (read_result pm snapshot p.p_page p.p_txn))

let rec home_serve pm h p =
  let hp = get_hpage pm h p.p_page in
  if hp.hbusy then Queue.push p hp.hwaiting
  else begin
    ensure_data pm hp;
    match p.p_txn with
    | Memtxn.Read _ | Memtxn.Block_read _ ->
      if p.p_src = h then begin
        (* the home reads its own page in place; no replica involved *)
        let nh = pm.nodes.(h) in
        let now = Engine.now nh.engine in
        let words = Memtxn.data_words p.p_txn in
        let lat =
          Xbar.access ?inject:nh.inject pm.cfg pm.mods ~now ~proc:h ~mem_module:h Xbar.Read
            ~words
        in
        let res = read_result pm hp.hdata p.p_page p.p_txn in
        nh.c.words <- nh.c.words + words;
        Engine.schedule_after nh.engine ~delay:(max 1 lat) (fun () -> p.p_complete res)
      end
      else grant_copy pm h hp p
    | Memtxn.Write _ | Memtxn.Rmw _ | Memtxn.Block_write _ ->
      if hp.nholders = 0 then apply_write pm h hp p else start_shootdown pm h hp p
    | Memtxn.Stride_read _ | Memtxn.Stride_write _ -> assert false
  end

(* Apply a write/rmw at the home and send the completion back.  Charged
   against the home module's queue with the requester as the issuing
   processor, so remote writes pay the remote-hop word costs. *)
and apply_write pm h hp p =
  let nh = pm.nodes.(h) in
  let now = Engine.now nh.engine in
  let base = p.p_page * pm.pw in
  let kind, words, res =
    match p.p_txn with
    | Memtxn.Write { vaddr; value } ->
      hp.hdata.(vaddr - base) <- value land word_mask;
      (Xbar.Write, 1, Memtxn.Unit)
    | Memtxn.Rmw { vaddr; f } ->
      let old = hp.hdata.(vaddr - base) in
      hp.hdata.(vaddr - base) <- f old land word_mask;
      (Xbar.Rmw, 1, Memtxn.Word old)
    | Memtxn.Block_write { vaddr; src; src_off; len } ->
      for i = 0 to len - 1 do
        hp.hdata.(vaddr - base + i) <- src.(src_off + i) land word_mask
      done;
      (Xbar.Write, len, Memtxn.Unit)
    | _ -> assert false
  in
  hp.hversion <- hp.hversion + 1;
  let lat =
    Xbar.access ?inject:nh.inject pm.cfg pm.mods ~now ~proc:p.p_src ~mem_module:h kind ~words
  in
  nh.c.words <- nh.c.words + words;
  if p.p_src = h then Engine.schedule_after nh.engine ~delay:(max 1 lat) (fun () -> p.p_complete res)
  else
    Engine.post nh.engine ~src:h ~dst:p.p_src ~delay:(max (net_delay pm ~src:h ~dst:p.p_src) lat)
      (fun () -> p.p_complete res)

(* Invalidate every replica before a write: one IPI per holder, acks ride
   back as messages, the page queues everything until the last ack.  IPI
   drops retry on the ack-timeout backoff; the plane's bounded adversary
   delivers the final attempt, so shootdowns always complete. *)
and start_shootdown pm h hp p =
  let nh = pm.nodes.(h) in
  nh.c.shootdowns <- nh.c.shootdowns + 1;
  hp.hbusy <- true;
  let vfloor = hp.hversion in
  let targets = ref [] in
  for t = Array.length pm.nodes - 1 downto 0 do
    if Bytes.get hp.hholders t = '\001' then targets := t :: !targets
  done;
  let expected = List.length !targets in
  let acks = ref 0 in
  let on_ack () =
    incr acks;
    if !acks = expected then begin
      Bytes.fill hp.hholders 0 (Bytes.length hp.hholders) '\000';
      hp.nholders <- 0;
      hp.hbusy <- false;
      apply_write pm h hp p;
      drain_waiting pm h hp
    end
  in
  List.iter (fun t -> send_ipi pm h ~target:t ~page:p.p_page ~vfloor ~attempt:0 ~on_ack) !targets

and send_ipi pm h ~target ~page ~vfloor ~attempt ~on_ack =
  let nh = pm.nodes.(h) in
  nh.c.ipis <- nh.c.ipis + 1;
  let verdict =
    match nh.inject with Some inj -> Inject.ipi_fault inj ~attempt | None -> `Deliver
  in
  match verdict with
  | `Drop ->
    (match nh.inject with
    | Some inj ->
      Inject.note_shootdown_retry inj;
      Engine.schedule_after nh.engine ~deferred:true ~delay:(Inject.ack_timeout inj ~attempt)
        (fun () -> send_ipi pm h ~target ~page ~vfloor ~attempt:(attempt + 1) ~on_ack)
    | None -> assert false (* a plane-free run never drops *))
  | (`Deliver | `Delay _) as d ->
    let extra = match d with `Delay ns -> ns | `Deliver -> 0 in
    Engine.post nh.engine ~src:h ~dst:target ~delay:(ipi_delay pm ~src:h ~dst:target + extra)
      (fun () ->
        let nt = pm.nodes.(target) in
        (match Flat.find nt.replicas page with
        | Some _ ->
          Flat.remove nt.replicas page;
          nt.c.invalidations <- nt.c.invalidations + 1
        | None -> ());
        let floor = match Flat.find nt.pfloor page with Some f -> f | None -> -1 in
        if vfloor > floor then Flat.set nt.pfloor page vfloor;
        Engine.post nt.engine ~src:target ~dst:h ~delay:(net_delay pm ~src:target ~dst:h)
          (fun () -> on_ack ()))

and drain_waiting pm h hp =
  while (not hp.hbusy) && not (Queue.is_empty hp.hwaiting) do
    home_serve pm h (Queue.pop hp.hwaiting)
  done

(* --- requester side --- *)

(* Send a request to a remote home.  The sender's fault plane may drop it
   ([rpc_drop]); recovery is the retransmission timer with exponential
   backoff, and the plane forces delivery on the final attempt. *)
let rec send_request pm s h p ~attempt =
  let ns = pm.nodes.(s) in
  let dropped =
    match ns.inject with Some inj -> Inject.rpc_drop inj ~attempt | None -> false
  in
  if dropped then begin
    ns.c.retrans <- ns.c.retrans + 1;
    match ns.inject with
    | Some inj ->
      Inject.note_rpc_retry inj;
      Engine.schedule_after ns.engine ~deferred:true ~delay:(Inject.rpc_retrans inj ~attempt)
        (fun () -> send_request pm s h p ~attempt:(attempt + 1))
    | None -> assert false
  end
  else
    Engine.post ns.engine ~src:s ~dst:h ~delay:(net_delay pm ~src:s ~dst:h) (fun () ->
        home_serve pm h p)

(* The {!Memsys.remote} hook for node [s]: adopt every valid single-page
   transaction and serve it through the protocol; decline the rest so the
   synchronous path reports the error. *)
let try_remote pm s txn ~complete =
  match Memtxn.validate txn with
  | exception _ -> false
  | () -> (
    match txn_page pm txn with
    | None -> false
    | Some page ->
      let ns = pm.nodes.(s) in
      let h = pm.home_of page in
      let p = { p_txn = txn; p_src = s; p_page = page; p_complete = complete } in
      (match txn with
      | Memtxn.Read _ | Memtxn.Block_read _ ->
        ns.c.reads <- ns.c.reads + 1;
        if h = s then begin
          ns.c.local_hits <- ns.c.local_hits + 1;
          home_serve pm s p
        end
        else (
          match Flat.find ns.replicas page with
          | Some r ->
            (* steady-state hit: served from the local copy *)
            ns.c.local_hits <- ns.c.local_hits + 1;
            let words = Memtxn.data_words txn in
            let now = Engine.now ns.engine in
            let lat =
              Xbar.access ?inject:ns.inject pm.cfg pm.mods ~now ~proc:s ~mem_module:s
                Xbar.Read ~words
            in
            ns.c.words <- ns.c.words + words;
            let res = read_result pm r.rdata page txn in
            Engine.schedule_after ns.engine ~delay:(max 1 lat) (fun () -> complete res)
          | None ->
            ns.c.remote_ops <- ns.c.remote_ops + 1;
            send_request pm s h p ~attempt:0)
      | Memtxn.Write _ | Memtxn.Rmw _ | Memtxn.Block_write _ ->
        ns.c.writes <- ns.c.writes + 1;
        if h = s then begin
          ns.c.local_hits <- ns.c.local_hits + 1;
          home_serve pm s p
        end
        else begin
          ns.c.remote_ops <- ns.c.remote_ops + 1;
          send_request pm s h p ~attempt:0
        end
      | Memtxn.Stride_read _ | Memtxn.Stride_write _ -> assert false);
      true)

(* --- the per-node memory system --- *)

let memsys_for pm s arena_base_word =
  let ns = pm.nodes.(s) in
  ns.arena_next <- arena_base_word;
  let alloc ~zone:_ ~words ~page_aligned =
    let a =
      if page_aligned then (ns.arena_next + pm.pw - 1) / pm.pw * pm.pw else ns.arena_next
    in
    if a + words > arena_base_word + (arena_pages_per_node * pm.pw) then
      failwith "Parkernel: node arena exhausted";
    ns.arena_next <- a + words;
    a
  in
  {
    Memsys.page_words = pm.pw;
    submit =
      (fun ~now:_ ~proc:_ ~aspace:_ txn ->
        Memtxn.validate txn;
        if Memtxn.data_words txn = 0 then (Memtxn.Unit, 0)
        else
          invalid_arg
          "Parkernel: stride and page-straddling transactions are not supported on \
           distributed memory");
    new_aspace = (fun () -> invalid_arg "Parkernel: one address space per machine");
    new_zone = (fun ~aspace:_ ~name:_ ~pages:_ -> 0);
    alloc;
    alloc_pages = (fun ~zone ~pages -> alloc ~zone ~words:(pages * pm.pw) ~page_aligned:true);
    new_segment = (fun ~name:_ ~pages:_ -> invalid_arg "Parkernel: no segments");
    map_segment = (fun ~aspace:_ ~segment:_ -> invalid_arg "Parkernel: no segments");
    advise = (fun ~now:_ ~proc:_ ~aspace:_ ~vaddr:_ ~len:_ _ -> 0);
    migrate_cost = (fun ~now:_ ~from_proc:_ ~to_proc:_ -> pm.cfg.Config.thread_migrate_ns);
    describe = (fun () -> "parmem: home-partitioned distributed coherent memory");
    fastpath = None;
    remote =
      Some
        {
          Memsys.try_remote =
            (fun ~now:_ ~proc:_ ~aspace:_ txn ~complete -> try_remote pm s txn ~complete);
        };
  }

(* --- the shared barrier (control pages, homed at node 0) ---

   Count and generation words live on separate pages so arrival rmws do
   not shoot down the spinners' generation replicas; only the release
   write does, which is exactly the invalidation that lets them see it. *)

let barrier_count_addr = 0
let barrier_gen_addr pw = pw

let barrier ~parties ~pw () =
  let gen_addr = barrier_gen_addr pw in
  let g = Api.read gen_addr in
  let arrived = Api.rmw barrier_count_addr (fun v -> v + 1) + 1 in
  if arrived = parties then begin
    Api.write barrier_count_addr 0;
    Api.write gen_addr ((g + 1) land word_mask)
  end
  else Sync.spin_until (fun () -> Api.read gen_addr <> g)

(* --- results --- *)

type result = {
  workload : string;
  nodes : int;
  run_shards : int;
  run_domains : int;
  events : int;
  windows : int;
  clock : int;
  reads : int;
  writes : int;
  replications : int;
  invalidations : int;
  shootdowns : int;
  ipis : int;
  retries : int;
  rpcs : int;
  faults : int;
  words : int;
  touched_pages : int;
  replica_pages : int;
  span_words : int;
  setup_ms : float;
  verified : bool;
  fingerprint : string;
}

(* --- workload construction --- *)

let row_page ~spages r = data_base_page + (r * spages)
let row_addr pm ~spages r = row_page ~spages r * pm.pw
let seed_cell r c = (((r * 1103515245) + (c * 12345)) land 0xFFFF) + 1

let run ?check ?(shards = 1) ?(domains = 1) ?(inject_rate = 0.0) ?(seed = 42L) ?(iters = 6)
    ?(ops_per_node = 32) ?(width = 128) ?(span_words = 0) ~config:(cfg : Config.t) workload =
  let t0 = Sys.time () in
  let n = cfg.Config.nprocs in
  let pw = cfg.Config.page_words in
  if width < 1 || width > pw then invalid_arg "Parkernel.run: width must be in [1, page_words]";
  if iters < 1 then invalid_arg "Parkernel.run: iters must be >= 1";
  (* row placement: stretch rows over at least [span_words] of address span *)
  let spages = max 1 ((span_words + (n * pw) - 1) / (n * pw)) in
  let data_pages = n * spages in
  let arena_base = data_base_page + data_pages in
  let home_of page =
    if page < data_base_page then 0
    else if page < arena_base then (page - data_base_page) / spages mod n
    else min (n - 1) ((page - arena_base) / arena_pages_per_node)
  in
  let machine = Machine.create cfg in
  let master = Rng.create seed in
  let nodes =
    Array.init n (fun id ->
        let rng = Rng.split master in
        let inject =
          if inject_rate > 0.0 then
            Some
              (Inject.create (Inject.config ~seed:(Rng.next_int64 master) ~rate:inject_rate ()))
          else begin
            (* keep the master stream identical whether or not a plane is
               attached at this rate *)
            ignore (Rng.next_int64 master);
            None
          end
        in
        {
          id;
          engine = Engine.create ();
          rng;
          kernel = None;
          inject;
          homes = Flat.create ();
          replicas = Flat.create ();
          pfloor = Flat.create ();
          c = make_counters ();
          arena_next = 0;
        })
  in
  let pm =
    {
      cfg;
      machine;
      mods = Machine.modules machine;
      nodes;
      home_of;
      pw;
      la = Config.lookahead_ns cfg;
    }
  in
  (* per-node kernels over one-processor run-queue slices *)
  Array.iter
    (fun nd ->
      let memsys = memsys_for pm nd.id ((arena_base + (nd.id * arena_pages_per_node)) * pw) in
      nd.kernel <-
        Some (Kernel.create ~slice:(nd.id, 1) ~engine:nd.engine ~machine ~memsys ()))
    nodes;
  (* pre-seed the grid rows directly into their home pages (setup time,
     cost-free: the simulation starts with the data already placed) *)
  let is_grid = match workload with Jacobi | Gauss -> true | Rpc_echo | Program _ -> false in
  let grid = Array.init n (fun r -> Array.init width (fun c -> seed_cell r c)) in
  if is_grid then
    Array.iteri
      (fun r row ->
        let hp = get_hpage pm (home_of (row_page ~spages r)) (row_page ~spages r) in
        ensure_data pm hp;
        Array.blit row 0 hp.hdata 0 width)
      grid;
  (* host the engines: routers install here, before any thread exists, so
     even setup-time posts would take the mailbox path *)
  let hosted = Shard.host ?check ~shards ~lookahead:pm.la (Array.map (fun nd -> nd.engine) nodes) in
  (* the workload threads *)
  let kernel_of nd = match nd.kernel with Some k -> k | None -> assert false in
  let spawn_each body =
    Array.iter
      (fun nd -> ignore (Kernel.spawn (kernel_of nd) ~proc:nd.id (fun () -> body nd.id)))
      nodes
  in
  (match workload with
  | Jacobi ->
    spawn_each (fun r ->
        let own_addr = row_addr pm ~spages r in
        for _it = 1 to iters do
          let left = Api.block_read (row_addr pm ~spages ((r + n - 1) mod n)) width in
          let right = Api.block_read (row_addr pm ~spages ((r + 1) mod n)) width in
          let own = Api.block_read own_addr width in
          barrier ~parties:n ~pw ();
          let next =
            Array.init width (fun c -> (left.(c) + right.(c) + own.(c)) / 3 land word_mask)
          in
          Api.block_write own_addr next;
          barrier ~parties:n ~pw ()
        done)
  | Gauss ->
    spawn_each (fun r ->
        let own_addr = row_addr pm ~spages r in
        for it = 0 to iters - 1 do
          let pivot = it mod n in
          let prow = Api.block_read (row_addr pm ~spages pivot) width in
          barrier ~parties:n ~pw ();
          let own = Api.block_read own_addr width in
          let next = Array.init width (fun c -> ((3 * own.(c)) + prow.(c)) land 0xFFFF) in
          Api.block_write own_addr next;
          barrier ~parties:n ~pw ()
        done)
  | Program f ->
    spawn_each (fun node -> f ~node ~row:(row_addr pm ~spages) ~rng:nodes.(node).rng)
  | Rpc_echo ->
    (* pair 2p+1 (client) with 2p (server); request slot homed at the
       server, response slot homed at the client, a sequence word each *)
    let pairs = n / 2 in
    for p = 0 to pairs - 1 do
      let server = 2 * p and client = (2 * p) + 1 in
      let req_addr = row_addr pm ~spages server and resp_addr = row_addr pm ~spages client in
      ignore
        (Kernel.spawn (kernel_of nodes.(server)) ~proc:server (fun () ->
             for i = 1 to ops_per_node do
               Sync.spin_until (fun () -> Api.read req_addr = i);
               let payload = Api.read (req_addr + 1) in
               Api.write (resp_addr + 1) ((payload + i) land word_mask);
               Api.write resp_addr i
             done));
      ignore
        (Kernel.spawn (kernel_of nodes.(client)) ~proc:client (fun () ->
             for i = 1 to ops_per_node do
               let payload = (client * 100_003) + i in
               Api.write (req_addr + 1) payload;
               Api.write req_addr i;
               Sync.spin_until (fun () -> Api.read resp_addr = i);
               if Api.read (resp_addr + 1) <> (payload + i) land word_mask then
                 failwith "Parkernel rpc_echo: payload mismatch";
               nodes.(client).c.rpcs <- nodes.(client).c.rpcs + 1
             done))
    done);
  let setup_ms = (Sys.time () -. t0) *. 1000. in
  Shard.run_hosted ~domains hosted;
  Array.iter (fun nd -> ignore (Kernel.post_run_checks (kernel_of nd))) nodes;
  (* --- verification against a host-side oracle --- *)
  let rows_match g =
    Array.for_all
      (fun nd ->
        let r = nd.id in
        match Flat.find nodes.(home_of (row_page ~spages r)).homes (row_page ~spages r) with
        | Some hp -> Array.for_all (fun c -> hp.hdata.(c) = g.(r).(c)) (Array.init width Fun.id)
        | None -> false)
      nodes
  in
  let verified =
    match workload with
    | Jacobi ->
      let g = Array.map Array.copy grid in
      for _it = 1 to iters do
        let prev = Array.map Array.copy g in
        for r = 0 to n - 1 do
          for c = 0 to width - 1 do
            g.(r).(c) <-
              (prev.((r + n - 1) mod n).(c) + prev.((r + 1) mod n).(c) + prev.(r).(c)) / 3
              land word_mask
          done
        done
      done;
      rows_match g
    | Gauss ->
      let g = Array.map Array.copy grid in
      for it = 0 to iters - 1 do
        let pivot = Array.copy g.(it mod n) in
        for r = 0 to n - 1 do
          for c = 0 to width - 1 do
            g.(r).(c) <- ((3 * g.(r).(c)) + pivot.(c)) land 0xFFFF
          done
        done
      done;
      rows_match g
    | Program _ -> true
    | Rpc_echo ->
      (* every response slot must hold the last sequence number *)
      let pairs = n / 2 in
      let all = ref true in
      for p = 0 to pairs - 1 do
        let client = (2 * p) + 1 in
        (match Flat.find nodes.(client).homes (row_page ~spages client) with
        | Some hp -> if hp.hdata.(0) <> ops_per_node then all := false
        | None -> if ops_per_node > 0 then all := false);
        if nodes.(client).c.rpcs <> ops_per_node then all := false
      done;
      !all
  in
  (* --- fingerprint: per-node counters, engine history, module stats,
     fault plane, then every home page's version and contents, all in
     node order --- *)
  let h = Fnv.create () in
  let mixin = Fnv.int h in
  Array.iter
    (fun nd ->
      let c = nd.c in
      mixin c.reads;
      mixin c.writes;
      mixin c.local_hits;
      mixin c.remote_ops;
      mixin c.replications;
      mixin c.discards;
      mixin c.invalidations;
      mixin c.shootdowns;
      mixin c.ipis;
      mixin c.retrans;
      mixin c.rpcs;
      mixin c.words;
      mixin (Engine.events_processed nd.engine);
      mixin (Engine.now nd.engine);
      mixin (Kernel.context_switches (kernel_of nd));
      mixin (Memmodule.total_busy_ns pm.mods.(nd.id));
      mixin (Memmodule.total_wait_ns pm.mods.(nd.id));
      (match nd.inject with
      | Some inj -> Fnv.string h (Inject.fingerprint inj)
      | None -> ());
      Flat.iter
        (fun page hp ->
          mixin page;
          mixin hp.hversion;
          Array.iter mixin hp.hdata)
        nd.homes)
    nodes;
  mixin (if verified then 1 else 0);
  let sum f = Array.fold_left (fun acc nd -> acc + f nd) 0 nodes in
  let touched_pages =
    sum (fun nd ->
        let k = ref 0 in
        Flat.iter (fun _ hp -> if Array.length hp.hdata > 0 then incr k) nd.homes;
        !k)
  in
  let eff_shards = Shard.hosted_shards hosted in
  {
    workload = workload_name workload;
    nodes = n;
    run_shards = eff_shards;
    run_domains = max 1 (min domains eff_shards);
    events = Shard.hosted_events hosted;
    windows = Shard.hosted_windows hosted;
    clock = Shard.hosted_clock hosted;
    reads = sum (fun nd -> nd.c.reads);
    writes = sum (fun nd -> nd.c.writes);
    replications = sum (fun nd -> nd.c.replications);
    invalidations = sum (fun nd -> nd.c.invalidations);
    shootdowns = sum (fun nd -> nd.c.shootdowns);
    ipis = sum (fun nd -> nd.c.ipis);
    retries =
      sum (fun nd -> match nd.inject with Some inj -> Inject.retries inj | None -> 0);
    rpcs = sum (fun nd -> nd.c.rpcs);
    faults =
      sum (fun nd -> match nd.inject with Some inj -> Inject.faults_injected inj | None -> 0);
    words = sum (fun nd -> nd.c.words);
    touched_pages;
    replica_pages = sum (fun nd -> Flat.length nd.replicas);
    span_words = (arena_base - data_base_page) * pw;
    setup_ms;
    verified;
    fingerprint = Fnv.to_hex h;
  }
