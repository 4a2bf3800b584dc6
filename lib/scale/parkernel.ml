(* The PLATINUM kernel itself on the sharded engine: one complete kernel
   simulation per node — its own {!Platinum_sim.Engine}, its own
   {!Platinum_kernel.Kernel} over a one-processor run-queue slice, its own
   fault sub-plane — advanced in parallel by {!Platinum_sim.Shard.host}.

   This module is the host.  The coherent memory underneath is
   {!Homemem}, reached only through its interface: a per-node
   {!Platinum_kernel.Memsys.t}, the setup-time image, the at-rest
   read-back and the fingerprint folds.  Every workload is a {!program}:
   the built-in ones resolve to one here, and from then on a run is one
   path — load the image, spawn the body on every node, run, verify. *)

module Engine = Platinum_sim.Engine
module Shard = Platinum_sim.Shard
module Inject = Platinum_sim.Inject
module Rng = Platinum_sim.Rng
module Fnv = Platinum_sim.Fnv
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Memmodule = Platinum_machine.Memmodule
module Kernel = Platinum_kernel.Kernel
module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type program = {
  name : string;
  image : (int * int array) list;
  body : node:int -> row:(int -> int) -> rng:Rng.t -> unit;
  verify : (int -> int array) -> bool;
}

type workload = Jacobi | Gauss | Rpc_echo | Program of program

let workload_name = function
  | Jacobi -> "jacobi"
  | Gauss -> "gauss"
  | Rpc_echo -> "rpc_echo"
  | Program p -> p.name

let all_workloads = [ Jacobi; Gauss; Rpc_echo ]

(* --- address-space layout ---

   Low pages are the shared control region (barrier words), homed at node
   0.  The data region starts at [data_base_page]; workload row [r] lives
   at page [data_base_page + r * spages], homed at node [r mod n] — with
   [spages] > 1 the rows spread over an address span far larger than the
   touched footprint (the GB-scale variant).  Each node's private bump
   arena sits above the data region. *)

let data_base_page = 8
let arena_pages_per_node = 4096
let word_mask = Homemem.word_mask

(* --- the built-in programs --- *)

let seed_cell r c = (((r * 1103515245) + (c * 12345)) land 0xFFFF) + 1

(* Jacobi and gauss: rows [0, n) start seeded; each iteration node [r]
   reads rows [pre], barriers, reads rows [post] and writes [next] of
   them (pre then post) into its own row, then barriers.  The oracle runs
   the same [next] over a host copy of the grid.  A node's row buffers
   are allocated once: [pre] and [post] have a fixed length per node. *)
let grid ~name ~n ~pw ~width ~iters ~pre ~post ~next =
  let seed = Array.init n (fun r -> Array.init width (seed_cell r)) in
  (* The barrier's count word is word 0 and its generation word is the
     first word of page 1, both homed at node 0.  On separate pages,
     arrival rmws do not shoot down the spinners' generation replicas;
     only the release write does, which is exactly the invalidation that
     lets them see it. *)
  let barrier = Sync.Barrier.of_addrs ~parties:n ~count_addr:0 ~gen_addr:pw in
  let body ~node:r ~row ~rng:_ =
    let npre = Array.length (pre ~r ~it:0) in
    let rows = Array.init (npre + Array.length (post ~r ~it:0)) (fun _ -> Array.make width 0) in
    let out = Array.make width 0 in
    let read first qs =
      for i = 0 to Array.length qs - 1 do
        Api.block_read_into (row qs.(i)) rows.(first + i) ~off:0 ~len:width
      done
    in
    for it = 0 to iters - 1 do
      read 0 (pre ~r ~it);
      Sync.Barrier.wait barrier;
      read npre (post ~r ~it);
      for c = 0 to width - 1 do
        out.(c) <- next rows c
      done;
      Api.block_write (row r) out;
      Sync.Barrier.wait barrier
    done
  in
  let verify words =
    let g = ref seed in
    for it = 0 to iters - 1 do
      let prev = !g in
      let inputs r = Array.map (Array.get prev) (Array.append (pre ~r ~it) (post ~r ~it)) in
      g := Array.init n (fun r -> Array.init width (next (inputs r)))
    done;
    List.for_all
      (fun r -> Array.for_all2 Int.equal !g.(r) (Array.sub (words r) 0 width))
      (List.init n Fun.id)
  in
  { name; image = List.init n (fun r -> (r, seed.(r))); body; verify }

(* Pair 2p+1 (client) with 2p (server): the request slot is homed at the
   server, the response slot at the client, a sequence word each.  The
   oracle: every response slot holds the last sequence number and every
   client counted each round trip. *)
let echo ~n ~ops ~rpcs =
  let body ~node ~row ~rng:_ =
    if node land 1 = 1 then begin
      let req = row (node - 1) and resp = row node in
      for i = 1 to ops do
        let payload = (node * 100_003) + i in
        Api.write (req + 1) payload;
        Api.write req i;
        Sync.spin_until (fun () -> Api.read resp = i);
        if Api.read (resp + 1) <> (payload + i) land word_mask then
          failwith "Parkernel rpc_echo: payload mismatch";
        rpcs.(node) <- rpcs.(node) + 1
      done
    end
    else if node + 1 < n then begin
      let req = row node and resp = row (node + 1) in
      for i = 1 to ops do
        Sync.spin_until (fun () -> Api.read req = i);
        let payload = Api.read (req + 1) in
        Api.write (resp + 1) ((payload + i) land word_mask);
        Api.write resp i
      done
    end
  in
  let verify words =
    List.for_all
      (fun p -> (words ((2 * p) + 1)).(0) = ops && rpcs.((2 * p) + 1) = ops)
      (List.init (n / 2) Fun.id)
  in
  { name = "rpc_echo"; image = []; body; verify }

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
  span_words : int;
  setup_ms : float;
  verified : bool;
  fingerprint : string;
}

let run ?check ?(shards = 1) ?(domains = 1) ?(inject_rate = 0.0) ?(seed = 42L) ?(iters = 6)
    ?(ops_per_node = 32) ?(width = 128) ?(span_words = 0) ~config:(cfg : Config.t) workload =
  let t0 = Sys.time () in
  let n = cfg.Config.nprocs in
  let pw = cfg.Config.page_words in
  if width < 1 || width > pw then invalid_arg "Parkernel.run: width must be in [1, page_words]";
  if iters < 1 then invalid_arg "Parkernel.run: iters must be >= 1";
  (* row placement: stretch rows over at least [span_words] of address span *)
  let spages = max 1 ((span_words + (n * pw) - 1) / (n * pw)) in
  let arena_base = data_base_page + (n * spages) in
  let home_of page =
    if page < data_base_page then 0
    else if page < arena_base then (page - data_base_page) / spages mod n
    else min (n - 1) ((page - arena_base) / arena_pages_per_node)
  in
  let row r = (data_base_page + (r * spages)) * pw in
  let rpcs = Array.make n 0 in
  let prog =
    match workload with
    | Jacobi ->
      grid ~name:"jacobi" ~n ~pw ~width ~iters
        ~pre:(fun ~r ~it:_ -> [| (r + n - 1) mod n; (r + 1) mod n; r |])
        ~post:(fun ~r:_ ~it:_ -> [||])
        ~next:(fun rows c -> (rows.(0).(c) + rows.(1).(c) + rows.(2).(c)) / 3 land word_mask)
    | Gauss ->
      grid ~name:"gauss" ~n ~pw ~width ~iters
        ~pre:(fun ~r:_ ~it -> [| it mod n |])
        ~post:(fun ~r ~it:_ -> [| r |])
        ~next:(fun rows c -> ((3 * rows.(1).(c)) + rows.(0).(c)) land 0xFFFF)
    | Rpc_echo -> echo ~n ~ops:ops_per_node ~rpcs
    | Program p -> p
  in
  let machine = Machine.create cfg in
  let mods = Machine.modules machine in
  (* per node: split the stream, then draw the plane seed whether or not
     a plane is attached at this rate *)
  let master = Rng.create seed in
  let planes =
    Array.init n (fun _ ->
        let rng = Rng.split master in
        let seed = Rng.next_int64 master in
        ( rng,
          if inject_rate > 0.0 then Some (Inject.create (Inject.config ~seed ~rate:inject_rate ()))
          else None ))
  in
  let rngs = Array.map fst planes and injects = Array.map snd planes in
  let engines = Array.init n (fun _ -> Engine.create ()) in
  let mem = Homemem.create cfg mods ~engines ~injects ~home_of in
  (* per-node kernels over one-processor run-queue slices *)
  let kernels =
    Array.init n (fun i ->
        let memsys =
          Homemem.memsys mem i
            ~arena_base:((arena_base + (i * arena_pages_per_node)) * pw)
            ~arena_words:(arena_pages_per_node * pw)
        in
        Kernel.create ~slice:(i, 1) ~engine:engines.(i) ~machine ~memsys ())
  in
  (* the image goes straight into its home pages (setup time, cost-free:
     the simulation starts with the data already placed) *)
  List.iter (fun (r, words) -> Homemem.load mem ~addr:(row r) words) prog.image;
  (* host the engines: routers install here, before any thread exists, so
     even setup-time posts would take the mailbox path *)
  let hosted = Shard.host ?check ~shards ~lookahead:(Config.lookahead_ns cfg) engines in
  Array.iteri
    (fun i k -> ignore (Kernel.spawn k ~proc:i (fun () -> prog.body ~node:i ~row ~rng:rngs.(i))))
    kernels;
  let setup_ms = (Sys.time () -. t0) *. 1000. in
  Shard.run_hosted ~domains hosted;
  Array.iter (fun k -> ignore (Kernel.post_run_checks k)) kernels;
  let verified =
    prog.verify (fun r -> Homemem.home_words mem (row r / pw)) && Homemem.at_rest_ok mem
  in
  (* --- fingerprint: per-node counters, engine history, module stats,
     fault plane, then every home page's version and contents, all in
     node order --- *)
  let h = Fnv.create () in
  let mixin = Fnv.int h in
  for i = 0 to n - 1 do
    let c : Homemem.counters = Homemem.counters mem i in
    List.iter mixin
      [
        c.reads; c.writes; c.local_hits; c.remote_ops; c.replications; c.discards;
        c.invalidations; c.shootdowns; c.ipis; c.retrans; rpcs.(i); c.words;
        Engine.events_processed engines.(i); Engine.now engines.(i);
        Kernel.context_switches kernels.(i); Memmodule.total_busy_ns mods.(i);
        Memmodule.total_wait_ns mods.(i);
      ];
    Option.iter (fun inj -> Fnv.string h (Inject.fingerprint inj)) injects.(i);
    Homemem.fold_homes mem i
      (fun page version words () ->
        mixin page;
        mixin version;
        Array.iter mixin words)
      ()
  done;
  mixin (if verified then 1 else 0);
  let sum f = Array.fold_left ( + ) 0 (Array.init n f) in
  let counter (f : Homemem.counters -> int) = sum (fun i -> f (Homemem.counters mem i)) in
  let plane f = sum (fun i -> Option.fold ~none:0 ~some:f injects.(i)) in
  let eff_shards = Shard.hosted_shards hosted in
  {
    workload = prog.name;
    nodes = n;
    run_shards = eff_shards;
    run_domains = max 1 (min domains eff_shards);
    events = Shard.hosted_events hosted;
    windows = Shard.hosted_windows hosted;
    clock = Shard.hosted_clock hosted;
    reads = counter (fun c -> c.reads);
    writes = counter (fun c -> c.writes);
    replications = counter (fun c -> c.replications);
    invalidations = counter (fun c -> c.invalidations);
    shootdowns = counter (fun c -> c.shootdowns);
    ipis = counter (fun c -> c.ipis);
    retries = plane Inject.retries;
    rpcs = sum (Array.get rpcs);
    faults = plane Inject.faults_injected;
    words = counter (fun c -> c.words);
    touched_pages = Homemem.touched_pages mem;
    span_words = n * spages * pw;
    setup_ms;
    verified;
    fingerprint = Fnv.to_hex h;
  }
