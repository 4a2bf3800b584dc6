(* Big-machine workloads for the sharded engine: every node is a logical
   process owning its own engine, memory module, RNG and fault plane, and
   all cross-node traffic — remote word accesses (Xbar), shootdown IPIs,
   RPC request/response, block payloads — travels as messages through the
   hosted window loop's mailboxes ({!Shard.host}, the same loop that runs
   Parkernel).  This is the message-level decomposition the sequential
   kernel model charges arithmetically: here the home node really does
   serve the request in its own event, against its own module's queue, at
   whatever time the fabric delivers it.

   Determinism: each node's RNG and fault plane are seeded from the master
   seed in node order at setup and consumed only inside that node's own
   events, so the whole run is a pure function of (workload, config, seed,
   rate) — independent of shard count and domain count.  That is pinned by
   test_parshard.ml across shards x domains grids. *)

module Config = Platinum_machine.Config
module Memmodule = Platinum_machine.Memmodule
module Xbar = Platinum_machine.Xbar
module Engine = Platinum_sim.Engine
module Shard = Platinum_sim.Shard
module Inject = Platinum_sim.Inject
module Rng = Platinum_sim.Rng
module Arrivals = Platinum_sim.Arrivals
module Hist = Platinum_stats.Hist

type workload =
  | Traffic  (** remote/local word traffic served at the home module *)
  | Storm  (** shootdown IPI storms with lost/delayed-IPI recovery *)
  | Echo  (** RPC echo against per-cluster servers, with retransmission *)
  | Serve  (** open-loop request serving with per-node latency histograms *)

let workload_name = function
  | Traffic -> "traffic"
  | Storm -> "storm"
  | Echo -> "echo"
  | Serve -> "serve"

let all_workloads = [ Traffic; Storm; Echo; Serve ]

type node = {
  id : int;
  engine : Engine.t;
  rng : Rng.t;
  inject : Inject.t option;
  mmodule : Memmodule.t;
  mutable ops_left : int;
  (* -- counters, mutated only by this node's own handlers -- *)
  mutable accesses : int;
  mutable words : int;
  mutable latency_ns : int;
  mutable remote : int;
  mutable cross : int;
  mutable ipis : int;
  mutable acks : int;
  mutable retries : int;
  mutable rpcs : int;
  mutable served : int;
  (* per-node latency histogram (Serve); coarse precision keeps the
     footprint small on thousand-node machines *)
  hist : Hist.t;
}

(* Each workload's own conservative horizon.  Config.lookahead_ns is the
   fully general bound (it also covers T_b block-word streams), but every
   message a given workload sends rides a known primitive — a remote word
   trip, an IPI, or a port operation — so its window can be as fat as that
   primitive's minimum cross-node delay.  Wider windows = fewer barriers. *)
let lookahead (c : Config.t) = function
  | Traffic -> min c.Config.t_remote_read_word c.Config.t_remote_write_word
  | Storm -> c.Config.ipi_send_ns
  | Echo | Serve -> c.Config.port_op_ns

type result = {
  workload : string;
  nodes : int;
  run_shards : int;
  run_domains : int;
  events : int;
  windows : int;
  clock : int;
  accesses : int;
  words : int;
  remote : int;
  cross : int;
  ipis : int;
  retries : int;
  rpcs : int;
  faults : int;
  avg_latency_ns : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;
  fingerprint : string;
}

(* --- deterministic node setup --- *)

let make_nodes (c : Config.t) ~seed ~inject_rate ~ops_per_node =
  let master = Rng.create seed in
  Array.init c.Config.nprocs (fun id ->
      let rng = Rng.split master in
      let inject =
        if inject_rate > 0.0 then
          Some
            (Inject.create
               (Inject.config ~seed:(Rng.next_int64 master) ~rate:inject_rate ()))
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
        inject;
        mmodule = Memmodule.create id;
        ops_left = ops_per_node;
        accesses = 0;
        words = 0;
        latency_ns = 0;
        remote = 0;
        cross = 0;
        ipis = 0;
        acks = 0;
        retries = 0;
        rpcs = 0;
        served = 0;
        hist = Hist.create ~precision_bits:5 ();
      })

(* Pick a remote destination: mostly intra-cluster, sometimes across the
   fabric — the access mix that makes the two-level topology visible. *)
let pick_remote (c : Config.t) (n : node) =
  let nnodes = c.Config.nprocs in
  if nnodes = 1 then n.id
  else begin
    let cluster = Config.cluster_of c n.id in
    let nclusters = Config.clusters c in
    let cross = nclusters > 1 && Rng.int n.rng 100 < 25 in
    if cross then begin
      let other = (cluster + 1 + Rng.int n.rng (nclusters - 1)) mod nclusters in
      let base = other * c.Config.cluster_size in
      let span = min c.Config.cluster_size (nnodes - base) in
      base + Rng.int n.rng span
    end
    else begin
      let base = cluster * c.Config.cluster_size in
      let span = min c.Config.cluster_size (nnodes - base) in
      if span <= 1 then (n.id + 1) mod nnodes
      else begin
        let d = base + Rng.int n.rng span in
        if d = n.id then base + ((d - base + 1) mod span) else d
      end
    end
  end

let think (n : node) = 1_000 + Rng.int n.rng 49_000

(* --- Traffic: remote word accesses served at the home module --- *)

let start_traffic (c : Config.t) nodes_arr modules =
  let rec tick (n : node) () =
    if n.ops_left > 0 then begin
      n.ops_left <- n.ops_left - 1;
      let words = 1 + Rng.int n.rng 8 in
      let remote = c.Config.nprocs > 1 && Rng.int n.rng 100 < 30 in
      if not remote then begin
        (* Local: the node's own module, served inline in its own event. *)
        let now = Engine.now n.engine in
        let lat = Xbar.access c modules ~now ~proc:n.id ~mem_module:n.id Xbar.Read ~words in
        n.accesses <- n.accesses + 1;
        n.words <- n.words + words;
        n.latency_ns <- n.latency_ns + lat;
        Engine.schedule_after n.engine ~delay:(think n + lat) (tick n)
      end
      else begin
        let dst = pick_remote c n in
        let hop = Config.hop c ~src:n.id ~dst in
        n.remote <- n.remote + 1;
        if hop = Config.Cross then n.cross <- n.cross + 1;
        let issue = Engine.now n.engine in
        let wire = Xbar.uncontended_word_ns c Xbar.Read ~hop in
        (* Request travels one word trip; the home node serves the burst
           against its own module queue and mails the payload back. *)
        Engine.post n.engine ~src:n.id ~dst ~delay:wire (fun () ->
            let home = nodes_arr.(dst) in
            home.served <- home.served + 1;
            let lat =
              Xbar.access ?inject:home.inject c modules ~now:(Engine.now home.engine)
                ~proc:n.id ~mem_module:dst Xbar.Read ~words
            in
            Engine.post home.engine ~src:dst ~dst:n.id ~delay:(max lat wire) (fun () ->
                n.accesses <- n.accesses + 1;
                n.words <- n.words + words;
                n.latency_ns <- n.latency_ns + (Engine.now n.engine - issue);
                Engine.schedule_after n.engine ~delay:(think n) (tick n)))
      end
    end
  in
  Array.iter
    (fun n -> Engine.schedule_after n.engine ~delay:(Rng.int n.rng 50_000) (tick n))
    nodes_arr

(* --- Storm: shootdown IPI rounds with lost/delayed-IPI recovery --- *)

let start_storm (c : Config.t) nodes_arr =
  let nnodes = c.Config.nprocs in
  let ipi_ns ~src ~dst =
    c.Config.ipi_send_ns
    + (match Config.hop c ~src ~dst with
      | Config.Cross -> c.Config.ipi_cross_extra
      | Config.Local | Config.Intra -> 0)
  in
  let rec round (n : node) () =
    if n.ops_left > 0 then begin
      n.ops_left <- n.ops_left - 1;
      if nnodes = 1 then Engine.schedule_after n.engine ~delay:(think n) (round n)
      else begin
        let targets = 1 + Rng.int n.rng (min 4 (nnodes - 1)) in
        let pending = ref targets in
        let ack_from () =
          n.acks <- n.acks + 1;
          decr pending;
          if !pending = 0 then Engine.schedule_after n.engine ~delay:(think n) (round n)
        in
        let deliver dst ~delay =
          n.ipis <- n.ipis + 1;
          Engine.post n.engine ~src:n.id ~dst ~delay (fun () ->
              let t = nodes_arr.(dst) in
              t.served <- t.served + 1;
              (* target-side synchronization handler, then the ack rides
                 an IPI back *)
              Engine.post t.engine ~src:dst ~dst:n.id
                ~delay:(c.Config.sync_handler_ns + ipi_ns ~src:dst ~dst:n.id)
                ack_from)
        in
        (* Each IPI may be dropped or delayed by this node's fault plane;
           a drop arms the ack-timeout retransmission timer, and the
           plane's bounded adversary guarantees the final attempt
           delivers — the same recovery contract as Shootdown.run. *)
        let rec send dst ~attempt =
          let base = ipi_ns ~src:n.id ~dst in
          match n.inject with
          | None -> deliver dst ~delay:base
          | Some inj -> (
            match Inject.ipi_fault inj ~attempt with
            | `Deliver -> deliver dst ~delay:base
            | `Delay d -> deliver dst ~delay:(base + d)
            | `Drop ->
              n.retries <- n.retries + 1;
              Inject.note_shootdown_retry inj;
              Engine.schedule_after n.engine ~delay:(Inject.ack_timeout inj ~attempt)
                (fun () -> send dst ~attempt:(attempt + 1)))
        in
        for _ = 1 to targets do
          let dst = pick_remote c n in
          send dst ~attempt:0
        done
      end
    end
  in
  Array.iter
    (fun n -> Engine.schedule_after n.engine ~delay:(Rng.int n.rng 50_000) (round n))
    nodes_arr

(* --- RPC to per-cluster servers, shared by Echo and Serve --- *)

(* The client's server: the first node of its own cluster, or one time in
   five another cluster's.  Draws from the client's stream. *)
let server_of (c : Config.t) (n : node) =
  let nclusters = Config.clusters c in
  let cluster =
    if nclusters > 1 && Rng.int n.rng 100 < 20 then
      (Config.cluster_of c n.id + 1 + Rng.int n.rng (nclusters - 1)) mod nclusters
    else Config.cluster_of c n.id
  in
  min (cluster * c.Config.cluster_size) (c.Config.nprocs - 1)

(* One [words]-word RPC from [n] to [dst], issued now.  When the reply
   lands, [n]'s counters take it and [on_done latency] runs on [n].
   Draws nothing from [n]'s stream. *)
let rpc (c : Config.t) nodes_arr modules (n : node) ~dst ~words ~on_done =
  let issue = Engine.now n.engine in
  let finish_at (done_at : int) =
    n.rpcs <- n.rpcs + 1;
    n.words <- n.words + (2 * words);
    n.latency_ns <- n.latency_ns + (done_at - issue);
    on_done (done_at - issue)
  in
  let wire =
    c.Config.port_op_ns + (words * c.Config.t_block_word)
    + (match Config.hop c ~src:n.id ~dst with
      | Config.Cross -> words * c.Config.t_cross_block_extra
      | Config.Local | Config.Intra -> 0)
  in
  let finish () = finish_at (Engine.now n.engine) in
  let serve () =
    let server = nodes_arr.(dst) in
    server.served <- server.served + 1;
    let arrival = Engine.now server.engine in
    if dst = n.id then finish_at (arrival + c.Config.port_op_ns)
    else begin
      (* The server's module is the serialization point: bursts queue
         behind each other exactly like word runs at a memory module. *)
      let q =
        Xbar.access ?inject:server.inject c modules ~now:arrival ~proc:n.id ~mem_module:dst
          Xbar.Read ~words:1
      in
      Engine.post server.engine ~src:dst ~dst:n.id
        ~delay:(max wire (q + c.Config.port_op_ns))
        finish
    end
  in
  (* A lossy switch may eat the request: back off and retransmit,
     bounded by the plane (the final attempt always goes through). *)
  let rec send ~attempt =
    match n.inject with
    | None -> Engine.post n.engine ~src:n.id ~dst ~delay:wire serve
    | Some inj ->
      if Inject.rpc_drop inj ~attempt then begin
        n.retries <- n.retries + 1;
        Inject.note_rpc_retry inj;
        Engine.schedule_after n.engine ~delay:(Inject.rpc_retrans inj ~attempt) (fun () ->
            send ~attempt:(attempt + 1))
      end
      else Engine.post n.engine ~src:n.id ~dst ~delay:wire serve
  in
  send ~attempt:0

(* --- Echo: RPC against per-cluster servers with retransmission --- *)

let start_echo (c : Config.t) nodes_arr modules =
  let rec tick (n : node) () =
    if n.ops_left > 0 then begin
      n.ops_left <- n.ops_left - 1;
      let dst = server_of c n in
      let words = 4 + Rng.int n.rng 28 in
      rpc c nodes_arr modules n ~dst ~words ~on_done:(fun _ ->
          Engine.schedule_after n.engine ~delay:(think n) (tick n))
    end
  in
  Array.iter
    (fun n -> Engine.schedule_after n.engine ~delay:(Rng.int n.rng 50_000) (tick n))
    nodes_arr

(* --- Serve: open-loop request serving with latency histograms --- *)

(* Every node is a client under open-loop load: its arrival schedule is a
   seeded Poisson stream consumed at the scheduled instants, and the next
   request is scheduled when the current one *arrives*, never when it
   completes — overload builds a queue at the server's module instead of
   throttling the offered load.  Requests go to per-cluster servers (the
   tenant homes) exactly like Echo, with lossy-switch retransmission, and
   each completion records (done - scheduled_arrival) in the client's
   histogram, so the merged tails show queueing delay, fabric crossings
   and fault recovery all at once. *)
let start_serve (c : Config.t) nodes_arr modules ~offered_rps =
  (* One arrival generator per node, created in node order off the node's
     own stream — shard- and domain-independent like every other draw. *)
  let gens =
    Array.map
      (fun n -> Arrivals.create ~rng:n.rng (Arrivals.Poisson { rate_rps = offered_rps }))
      nodes_arr
  in
  let rec arrive (n : node) () =
    if n.ops_left > 0 then begin
      n.ops_left <- n.ops_left - 1;
      (* Open loop: commit to the next arrival before serving this one. *)
      if n.ops_left > 0 then
        Engine.schedule_after n.engine ~delay:(Arrivals.next_gap_ns gens.(n.id)) (arrive n);
      let dst = server_of c n in
      let words = 2 + Rng.int n.rng 6 in
      rpc c nodes_arr modules n ~dst ~words ~on_done:(Hist.record n.hist)
    end
  in
  Array.iter
    (fun n ->
      Engine.schedule_after n.engine ~delay:(Arrivals.next_gap_ns gens.(n.id)) (arrive n))
    nodes_arr

(* --- fingerprinting and the driver --- *)

let fnv_prime = 0x100000001b3L

let run ?check ?(shards = 1) ?(domains = 1) ?(inject_rate = 0.0) ?(seed = 42L)
    ?(ops_per_node = 50) ?(offered_rps = 25_000.0) ~config workload =
  let c : Config.t = config in
  let nodes_arr = make_nodes c ~seed ~inject_rate ~ops_per_node in
  let modules = Array.map (fun n -> n.mmodule) nodes_arr in
  let sh =
    Shard.host ?check ~shards ~lookahead:(lookahead c workload)
      (Array.map (fun n -> n.engine) nodes_arr)
  in
  (match workload with
  | Traffic -> start_traffic c nodes_arr modules
  | Storm -> start_storm c nodes_arr
  | Echo -> start_echo c nodes_arr modules
  | Serve -> start_serve c nodes_arr modules ~offered_rps);
  Shard.run_hosted ~domains sh;
  (* the exclusive end of the final window; run_hosted leaves the engines
     at its last instant *)
  let clock = Shard.hosted_clock sh + 1 in
  let h = ref 0xcbf29ce484222325L in
  let mixin v = h := Int64.mul (Int64.logxor !h (Int64.of_int v)) fnv_prime in
  let acc = ref (0, 0, 0, 0, 0, 0, 0, 0) in
  Array.iter
    (fun n ->
      mixin n.id;
      mixin n.accesses;
      mixin n.words;
      mixin n.latency_ns;
      mixin n.remote;
      mixin n.cross;
      mixin n.ipis;
      mixin n.acks;
      mixin n.retries;
      mixin n.rpcs;
      mixin n.served;
      mixin (Memmodule.requests n.mmodule);
      mixin (Memmodule.total_busy_ns n.mmodule);
      mixin (Memmodule.total_wait_ns n.mmodule);
      String.iter (fun ch -> mixin (Char.code ch)) (Hist.fingerprint n.hist);
      (match n.inject with
      | None -> ()
      | Some inj -> String.iter (fun ch -> mixin (Char.code ch)) (Inject.fingerprint inj));
      let a, w, r, x, i, t, p, f = !acc in
      acc :=
        ( a + n.accesses,
          w + n.words,
          r + n.remote,
          x + n.cross,
          i + n.ipis,
          t + n.retries,
          p + n.rpcs,
          f + (match n.inject with None -> 0 | Some inj -> Inject.faults_injected inj) ))
    nodes_arr;
  mixin (Shard.hosted_events sh);
  mixin clock;
  let accesses, words, remote, cross, ipis, retries, rpcs, faults = !acc in
  let denom = max 1 (accesses + rpcs) in
  let merged = Hist.create ~precision_bits:5 () in
  Array.iter (fun n -> Hist.merge ~into:merged n.hist) nodes_arr;
  {
    workload = workload_name workload;
    nodes = c.Config.nprocs;
    run_shards = Shard.hosted_shards sh;
    (* the effective width: [drive] clamps the pool to the shard count,
       so a 1-shard run always reports 1 domain regardless of launch -j *)
    run_domains = max 1 (min domains (Shard.hosted_shards sh));
    events = Shard.hosted_events sh;
    windows = Shard.hosted_windows sh;
    clock;
    accesses;
    words;
    remote;
    cross;
    ipis;
    retries;
    rpcs;
    faults;
    avg_latency_ns =
      float_of_int (Array.fold_left (fun s n -> s + n.latency_ns) 0 nodes_arr)
      /. float_of_int denom;
    p50_ns = Hist.p50 merged;
    p95_ns = Hist.p95 merged;
    p99_ns = Hist.p99 merged;
    p999_ns = Hist.p999 merged;
    fingerprint = Printf.sprintf "%016Lx" !h;
  }
