(* The five canonical workloads.  Each [run] builds its simulation from
   [seed], times the set-up and the simulation separately, checks the
   output against an oracle, and returns the run's layer counters.  A
   traced run wraps the Memsys record the kernel is built with
   ({!Spans.wrap}) and must leave every simulated output unchanged. *)

module Engine = Platinum_sim.Engine
module Arrivals = Platinum_sim.Arrivals
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Memmodule = Platinum_machine.Memmodule
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync
module Kernel = Platinum_kernel.Kernel
module Platsys = Platinum_kernel.Platsys
module Fastpath = Platinum_kernel.Fastpath
module Runner = Platinum_runner.Runner
module Gauss = Platinum_workload.Gauss
module Parkernel = Platinum_scale.Parkernel
module Serve = Platinum_serve.Serve

type outcome = {
  setup_s : float;
  wall_s : float;  (* the simulation phase, set-up excluded *)
  attempted : int;  (* ops the run set out to do *)
  ops : int;  (* ops completed *)
  ok : bool;  (* every oracle agreed *)
  detail : string;
  minor_words : float;  (* minor-heap words allocated during [wall_s] *)
  heap_peak_mb : float;  (* filled in by the process that ran it, at exit *)
  sim_ns : int;  (* simulated time at the end of the run *)
  fingerprint : string;  (* every simulated output, folded *)
  layers : (string * float) list;  (* layer metrics this workload can observe *)
}

type t = {
  name : string;
  params : smoke:bool -> string;
  run : smoke:bool -> seed:int -> traced:bool -> outcome;
}

(* --- helpers --- *)

let fnv values =
  let h =
    List.fold_left
      (fun h v -> Int64.mul (Int64.logxor h (Int64.of_int v)) 0x100000001b3L)
      0xcbf29ce484222325L values
  in
  Printf.sprintf "%016Lx" h

let setup_builds = 21

(* Median host seconds of [setup_builds] stack builds. *)
let time_builds build =
  Stats.median
    (List.init setup_builds (fun _ ->
         let t0 = Spans.now_ns () in
         ignore (Sys.opaque_identity (build ()));
         Spans.seconds_since t0))

let fastpath_reset () = Fastpath.reset_stats (Fastpath.ctx ())

let fastpath_metrics () =
  let st = Fastpath.stats (Fastpath.ctx ()) in
  let attempts = st.Fastpath.coalesced + st.Fastpath.fallbacks in
  [
    ("kernel.fastpath.runs", float_of_int st.Fastpath.runs);
    ("kernel.fastpath.fallbacks", float_of_int st.Fastpath.fallbacks);
    ("kernel.fastpath.coalesce_frac", Spans.per (float_of_int st.Fastpath.coalesced) attempts);
  ]

let fastpath_fingerprint () =
  let st = Fastpath.stats (Fastpath.ctx ()) in
  [ st.Fastpath.runs; st.Fastpath.coalesced; st.Fastpath.fallbacks ]

(* --- workloads on one Runner stack --- *)

type sim = {
  config : Config.t;
  main : unit -> unit;
  oracle : unit -> bool * string * int;
      (* after the run: verdict, detail, checksum of the output *)
  attempted : events:int -> int;
  inner_oracle : unit -> unit;
      (* oracle work the workload does inside the simulation; a traced run
         times it again outside so runner.verify_s can report it *)
}

let run_on_runner (sim : sim) ~traced =
  let config = sim.config in
  let setup_s = time_builds (fun () -> Runner.make ~config ()) in
  let spans = Spans.create () in
  let s = Runner.make ~config () in
  let engine = s.Runner.engine and machine = s.Runner.machine and coherent = s.Runner.coherent in
  (* Kernel.create registers nothing with the engine, so a traced run swaps
     in a second kernel over the same stack, its Memsys record wrapped. *)
  let kernel =
    if traced then
      Kernel.create ~engine ~machine ~memsys:(Spans.wrap spans (Platsys.memsys s.Runner.platsys)) ()
    else s.Runner.kernel
  in
  fastpath_reset ();
  let m0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  let elapsed = Kernel.run kernel ~main:sim.main in
  let wall_s = Spans.seconds_since t0 in
  let minor_words = Gc.minor_words () -. m0 in
  let t1 = Spans.now_ns () in
  let invariants = Coherent.check_invariants coherent in
  let oracle_ok, oracle_detail, checksum = sim.oracle () in
  let verify_s = Spans.seconds_since t1 in
  let inner_s =
    if traced then begin
      let t2 = Spans.now_ns () in
      sim.inner_oracle ();
      Spans.seconds_since t2
    end
    else 0.0
  in
  let ok, detail =
    match invariants with
    | Error e -> (false, "coherence invariant violated: " ^ e)
    | Ok () -> (oracle_ok, oracle_detail)
  in
  let events = Engine.events_processed engine in
  let c = Coherent.counters coherent in
  let mods = Machine.modules machine in
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 mods in
  let max_util =
    Array.fold_left (fun acc m -> Float.max acc (Memmodule.utilization m ~horizon:elapsed)) 0.0 mods
  in
  let counters =
    Counters.
      [
        ("core.read_faults", c.read_faults);
        ("core.write_faults", c.write_faults);
        ("core.replications", c.replications);
        ("core.migrations", c.migrations);
        ("core.remote_maps", c.remote_maps);
        ("core.freezes", c.freezes);
        ("core.thaws", c.thaws);
        ("core.shootdowns", c.shootdowns);
        ("core.interrupts", c.interrupts);
        ("core.atc_reloads", c.atc_reloads);
        ("core.fault_sim_ns", c.fault_ns);
        ("core.copy_sim_ns", c.copy_ns);
        ("machine.module_requests", sum Memmodule.requests);
        ("machine.module_busy_sim_ns", sum Memmodule.total_busy_ns);
        ("machine.module_wait_sim_ns", sum Memmodule.total_wait_ns);
        ("machine.ipis", Machine.ipis_sent machine);
        ("kernel.context_switches", Kernel.context_switches kernel);
        ("sim.events", events);
      ]
  in
  let fingerprint =
    fnv
      ((elapsed :: checksum :: Kernel.threads_created kernel :: List.map snd counters)
      @ fastpath_fingerprint ())
  in
  {
    setup_s;
    wall_s;
    attempted = sim.attempted ~events;
    ops = sim.attempted ~events;
    ok;
    detail;
    minor_words;
    heap_peak_mb = 0.0;
    sim_ns = elapsed;
    fingerprint;
    layers =
      List.map (fun (k, v) -> (k, float_of_int v)) counters
      @ [
          ("machine.max_module_util", max_util);
          ("runner.verify_s", verify_s +. inner_s);
        ]
      @ fastpath_metrics ()
      @ if traced then Spans.metrics spans ~root_s:wall_s else [];
  }

(* gauss800: the paper's Figure 1 PLATINUM point at full size. *)
let gauss ~smoke ~seed =
  let p = Gauss.params ~n:(if smoke then 64 else 800) ~seed ~verify:true ~nprocs:16 () in
  let out, main = Gauss.make p in
  {
    config = Config.butterfly_plus ~nprocs:16 ();
    main;
    oracle =
      (fun () -> (out.Platinum_workload.Outcome.ok, out.Platinum_workload.Outcome.detail, 0));
    attempted = (fun ~events -> events);
    inner_oracle = (fun () -> ignore (Sys.opaque_identity (Gauss.sequential p)));
  }

(* The stencil: a vertical three-point Jacobi sweep over an n x n grid,
   interior rows block-partitioned over the workers, a barrier between
   sweeps so the result is a pure function of the seed.  The per-word
   variant issues Api.read/write per word (the coalescing fast path); the
   block variant moves the same words as row transactions. *)
let cell ~seed ~n r j =
  let h = ((seed * 1_000_003) + (r * n) + j) * 0x9E3779B1 in
  (h lxor (h lsr 17)) land 0xFFFF

let grid_hash h v = Int64.to_int (Int64.mul (Int64.of_int (h lxor v)) 0x100000001b3L) land max_int

let stencil_words ~n ~sweeps = sweeps * (n - 2) * 4 * n

let stencil_oracle ~seed ~n ~sweeps =
  let src = ref (Array.init n (fun r -> Array.init n (cell ~seed ~n r))) in
  let dst = ref (Array.map Array.copy !src) in
  for _ = 1 to sweeps do
    let s = !src and d = !dst in
    for r = 1 to n - 2 do
      let up = s.(r - 1) and here = s.(r) and down = s.(r + 1) and out = d.(r) in
      for j = 0 to n - 1 do
        out.(j) <- (up.(j) + here.(j) + down.(j)) / 3
      done
    done;
    src := d;
    dst := s
  done;
  Array.fold_left (Array.fold_left grid_hash) 0 !src

let stencil ~per_word ~smoke ~seed =
  let nprocs = 4 in
  let n = if smoke then 64 else 1024 in
  let sweeps = match (per_word, smoke) with true, false -> 12 | false, false -> 96 | _ -> 2 in
  let result = ref (-1) in
  let main () =
    let a = Api.alloc ~page_aligned:true (n * n) in
    let b = Api.alloc ~page_aligned:true (n * n) in
    let zone = Api.new_zone "stencil-sync" ~pages:1 in
    let barrier = Sync.Barrier.make ~zone ~parties:nprocs () in
    let interior = n - 2 in
    let lo me = 1 + (me * interior / nprocs) in
    let hi me = 1 + (((me + 1) * interior / nprocs) - 1) in
    let worker me =
      (* first touch places each worker's rows (and the fixed edge rows)
         in its own memory *)
      let first = if me = 0 then 0 else lo me and last = if me = nprocs - 1 then n - 1 else hi me in
      for r = first to last do
        let row = Array.init n (cell ~seed ~n r) in
        Api.block_write (a + (r * n)) row;
        Api.block_write (b + (r * n)) row
      done;
      Sync.Barrier.wait barrier;
      let src = ref a and dst = ref b in
      for _ = 1 to sweeps do
        for r = lo me to hi me do
          if per_word then
            for j = 0 to n - 1 do
              let above = Api.read (!src + ((r - 1) * n) + j) in
              let here = Api.read (!src + (r * n) + j) in
              let below = Api.read (!src + ((r + 1) * n) + j) in
              Api.write (!dst + (r * n) + j) ((above + here + below) / 3)
            done
          else begin
            let tri = Api.block_read (!src + ((r - 1) * n)) (3 * n) in
            Api.block_write (!dst + (r * n))
              (Array.init n (fun j -> (tri.(j) + tri.(n + j) + tri.((2 * n) + j)) / 3))
          end
        done;
        Sync.Barrier.wait barrier;
        let tmp = !src in
        src := !dst;
        dst := tmp
      done
    in
    Api.spawn_join_all ~procs:(List.init nprocs Fun.id) (List.init nprocs (fun me _ -> worker me));
    let final = if sweeps land 1 = 0 then a else b in
    let h = ref 0 in
    for r = 0 to n - 1 do
      h := Array.fold_left grid_hash !h (Api.block_read (final + (r * n)) n)
    done;
    result := !h
  in
  {
    config = Config.butterfly_plus ~nprocs ();
    main;
    oracle =
      (fun () ->
        let expected = stencil_oracle ~seed ~n ~sweeps in
        ( !result = expected,
          Printf.sprintf "stencil grid hash %x, oracle %x" !result expected,
          !result ));
    attempted = (fun ~events:_ -> stencil_words ~n ~sweeps);
    inner_oracle = ignore;
  }

(* hosted_jacobi256: the kernel simulation on the sharded engine, one
   engine per node of a 16 x 16 hierarchical machine. *)
let hosted_nodes ~smoke = if smoke then 32 else 256
let hosted_iters ~smoke = if smoke then 2 else 24

let hosted ~smoke ~seed ~traced =
  let config = Config.hierarchical ~nodes:(hosted_nodes ~smoke) () in
  let run ~shards ~domains =
    Parkernel.run ~check:false ~shards ~domains ~seed:(Int64.of_int seed)
      ~iters:(hosted_iters ~smoke) ~config Parkernel.Jacobi
  in
  fastpath_reset ();
  let m0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  let r = run ~shards:1 ~domains:1 in
  let total_s = Spans.seconds_since t0 in
  let minor_words = Gc.minor_words () -. m0 in
  let fastpath = fastpath_metrics () in
  (* Shard speedup is measured only where two domains can really run at
     once; a one-core host reports nothing rather than an estimate. *)
  let speedup, same =
    if traced && Domain.recommended_domain_count () >= 2 then begin
      let timed domains =
        let t = Spans.now_ns () in
        let r2 = run ~shards:2 ~domains in
        (Spans.seconds_since t -. (r2.Parkernel.setup_ms /. 1000.), r2.Parkernel.fingerprint)
      in
      let w1, f1 = timed 1 in
      let w2, f2 = timed 2 in
      ([ ("sim.shard.speedup_2dom", w1 /. w2) ], f1 = r.Parkernel.fingerprint && f2 = f1)
    end
    else ([], true)
  in
  (* Parkernel times its build on the CPU clock (Sys.time); with one domain
     and no preemption that equals the monotonic time it is subtracted
     from. *)
  let setup_s = r.Parkernel.setup_ms /. 1000. in
  let ok = r.Parkernel.verified && same in
  let counts =
    Parkernel.
      [
        ("sim.events", r.events);
        ("sim.shard.windows", r.windows);
        ("scale.reads", r.reads);
        ("scale.writes", r.writes);
        ("scale.replications", r.replications);
        ("scale.invalidations", r.invalidations);
        ("scale.shootdowns", r.shootdowns);
        ("scale.ipis", r.ipis);
        ("scale.retries", r.retries);
        ("scale.words", r.words);
        ("scale.touched_pages", r.touched_pages);
      ]
  in
  {
    setup_s;
    wall_s = total_s -. setup_s;
    attempted = r.Parkernel.events;
    ops = r.Parkernel.events;
    ok;
    detail =
      (if not r.Parkernel.verified then "hosted jacobi differs from the host oracle"
       else if not same then "hosted jacobi fingerprint changed with shards/domains"
       else "");
    minor_words;
    heap_peak_mb = 0.0;
    sim_ns = r.Parkernel.clock;
    fingerprint = r.Parkernel.fingerprint;
    layers =
      List.map (fun (k, v) -> (k, float_of_int v)) counts
      @ [
          ( "sim.shard.events_per_window",
            Spans.per (float_of_int r.Parkernel.events) r.Parkernel.windows );
        ]
      @ fastpath @ speedup;
  }

(* serve_ring: open-loop multi-tenant serving over shared-memory rings on
   the 16-node Butterfly Plus. *)
let serve_requests ~smoke = if smoke then 200 else 50_000

let serve ~smoke ~seed =
  let config = Config.butterfly_plus () in
  let p =
    Serve.params ~tenants:4 ~clients_per_tenant:2 ~requests_per_client:(serve_requests ~smoke)
      ~process:(Arrivals.Poisson { rate_rps = 4_000.0 })
      ()
  in
  let expected = p.Serve.tenants * p.Serve.clients_per_tenant * p.Serve.requests_per_client in
  (* Serve.run builds its stack inside; time the same build outside. *)
  let setup_s = time_builds (fun () -> Runner.make ~config ~coalesce:true ()) in
  fastpath_reset ();
  let m0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  let r = Serve.run ~config ~check:false ~coalesce:true ~seed:(Int64.of_int seed) p Serve.Ring in
  let wall_s = Spans.seconds_since t0 in
  let minor_words = Gc.minor_words () -. m0 in
  let ok = r.Serve.completed = r.Serve.submitted && r.Serve.submitted = expected in
  {
    setup_s;
    wall_s;
    attempted = expected;
    ops = r.Serve.completed;
    ok;
    detail =
      Printf.sprintf "serve: %d of %d requests submitted, %d completed" r.Serve.submitted expected
        r.Serve.completed;
    minor_words;
    heap_peak_mb = 0.0;
    sim_ns = r.Serve.elapsed_ns;
    fingerprint = fnv (fastpath_fingerprint ()) ^ r.Serve.fingerprint;
    layers =
      [
        ("serve.completed", float_of_int r.Serve.completed);
        ("serve.retries", float_of_int r.Serve.retries);
        ("serve.p50_sim_ns", float_of_int r.Serve.p50_ns);
        ("serve.p99_sim_ns", float_of_int r.Serve.p99_ns);
        ("serve.p999_sim_ns", float_of_int r.Serve.p999_ns);
        ("serve.achieved_rps_sim", r.Serve.achieved_rps);
      ]
      @ fastpath_metrics ();
  }

let runner_workload name ~params make =
  { name; params; run = (fun ~smoke ~seed ~traced -> run_on_runner (make ~smoke ~seed) ~traced) }

let all =
  [
    runner_workload "gauss800" gauss ~params:(fun ~smoke ->
        Printf.sprintf "Gauss n=%d, 16 workers, butterfly_plus 16 nodes, platinum policy, verify on"
          (if smoke then 64 else 800));
    runner_workload "stencil_word" (stencil ~per_word:true) ~params:(fun ~smoke ->
        if smoke then "per-word Jacobi 64x64, 2 sweeps, 4 workers"
        else "per-word Jacobi 1024x1024, 12 sweeps, 4 workers");
    runner_workload "stencil_block" (stencil ~per_word:false) ~params:(fun ~smoke ->
        if smoke then "block Jacobi 64x64, 2 sweeps, 4 workers"
        else "block Jacobi 1024x1024, 96 sweeps, 4 workers");
    {
      name = "hosted_jacobi256";
      params =
        (fun ~smoke ->
          Printf.sprintf "Parkernel Jacobi, hierarchical %d nodes, %d iters, shards 1, domains 1"
            (hosted_nodes ~smoke) (hosted_iters ~smoke));
      run = hosted;
    };
    {
      name = "serve_ring";
      params =
        (fun ~smoke ->
          Printf.sprintf
            "Serve Ring, butterfly_plus 16 nodes, 4 tenants x 2 clients x %d requests, Poisson \
             4000 rps/client"
            (serve_requests ~smoke));
      run = (fun ~smoke ~seed ~traced:_ -> serve ~smoke ~seed);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
