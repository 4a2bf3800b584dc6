(* The PLATINUM kernel itself on the sharded engine: one complete kernel
   simulation per node — its own {!Platinum_sim.Engine}, its own
   {!Platinum_kernel.Kernel} over a one-processor run-queue slice, its own
   fault sub-plane — advanced in parallel by {!Platinum_sim.Shard.host}.

   This module is the host.  The coherent memory underneath is
   {!Homemem}, reached only through its interface: a per-node
   {!Platinum_kernel.Memsys.t}, the setup-time image, the at-rest
   read-back and the fingerprint folds.  Every workload is a
   {!Platinum_kernel.Program.t}: the built-in ones resolve to one here,
   and from then on a run is one path — load the image, spawn the body
   on every node, run, verify. *)

module Engine = Platinum_sim.Engine
module Shard = Platinum_sim.Shard
module Inject = Platinum_sim.Inject
module Fnv = Platinum_sim.Fnv
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Memmodule = Platinum_machine.Memmodule
module Kernel = Platinum_kernel.Kernel
module Program = Platinum_kernel.Program

type workload = Jacobi | Rpc_echo | Program of Program.t

let workload_name = function
  | Jacobi -> "jacobi"
  | Rpc_echo -> "rpc_echo"
  | Program p -> p.name

(* --- address-space layout ---

   Low pages are the shared control region (barrier words), homed at node
   0.  The data region starts at [data_base_page]; workload row [r] lives
   at page [data_base_page + r * spages], homed at node [r mod n] — with
   [spages] > 1 the rows spread over an address span far larger than the
   touched footprint (the GB-scale variant).  Each node's private bump
   arena sits above the data region. *)

let data_base_page = Program.data_base_page
let arena_pages_per_node = 4096

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
  (* row placement: stretch rows over at least [span_words] of address span *)
  let spages = Int.max 1 ((span_words + (n * pw) - 1) / (n * pw)) in
  let arena_base = data_base_page + (n * spages) in
  let home_of page =
    if page < data_base_page then 0
    else if page < arena_base then (page - data_base_page) / spages mod n
    else Int.min (n - 1) ((page - arena_base) / arena_pages_per_node)
  in
  let row r = (data_base_page + (r * spages)) * pw in
  let rpcs = Array.make n 0 in
  let prog =
    match workload with
    | Jacobi ->
        if width < 1 || width > pw then invalid_arg "Parkernel.run: width must be in [1, page_words]";
        if iters < 1 then invalid_arg "Parkernel.run: iters must be >= 1";
        Program.jacobi ~n ~pw ~width ~iters
    | Rpc_echo -> Program.echo ~n ~ops:ops_per_node ~rpcs
    | Program p -> p
  in
  let machine = Machine.create cfg in
  let mods = Machine.modules machine in
  (* node [i]'s stream, and its plane seed whether or not a plane is
     attached at this rate *)
  let streams = Program.streams ~seed n in
  let rngs = Array.map fst streams in
  let injects =
    Array.map
      (fun (_, seed) ->
        if inject_rate > 0.0 then Some (Inject.create (Inject.config ~seed ~rate:inject_rate ()))
        else None)
      streams
  in
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
    run_domains = Int.max 1 (Int.min domains eff_shards);
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
