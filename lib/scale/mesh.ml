(* The mesh workloads as hosted-kernel programs.  Each node's closure
   draws only from its own stream and writes only its own slot of the
   per-node histogram and log arrays, so a run stays a pure function of
   its parameters at any shard and domain count. *)

module Config = Platinum_machine.Config
module Rng = Platinum_sim.Rng
module Arrivals = Platinum_sim.Arrivals
module Fnv = Platinum_sim.Fnv
module Hist = Platinum_stats.Hist
module Api = Platinum_kernel.Api

type workload = Traffic | Storm | Serve

let workload_name = function Traffic -> "traffic" | Storm -> "storm" | Serve -> "serve"

type result = { run : Parkernel.result; latency : Hist.t }

(* A remote home: mostly intra-cluster, one time in four across the
   fabric — the mix that makes the two-level topology visible. *)
let pick_remote (c : Config.t) ~node rng =
  let nnodes = c.Config.nprocs in
  let cluster = Config.cluster_of c node in
  let nclusters = Config.clusters c in
  if nclusters > 1 && Rng.int rng 100 < 25 then begin
    let other = (cluster + 1 + Rng.int rng (nclusters - 1)) mod nclusters in
    let base = other * c.Config.cluster_size in
    base + Rng.int rng (min c.Config.cluster_size (nnodes - base))
  end
  else begin
    let base = cluster * c.Config.cluster_size in
    let span = min c.Config.cluster_size (nnodes - base) in
    if span <= 1 then (node + 1) mod nnodes
    else begin
      let d = base + Rng.int rng span in
      if d = node then base + ((d - base + 1) mod span) else d
    end
  end

(* The client's server: the first node of its own cluster, or one time in
   five another cluster's. *)
let server_of (c : Config.t) ~node rng =
  let nclusters = Config.clusters c in
  let cluster =
    if nclusters > 1 && Rng.int rng 100 < 20 then
      (Config.cluster_of c node + 1 + Rng.int rng (nclusters - 1)) mod nclusters
    else Config.cluster_of c node
  in
  min (cluster * c.Config.cluster_size) (c.Config.nprocs - 1)

let think rng = Api.sleep (1_000 + Rng.int rng 49_000)

let timed hist f =
  let t0 = Api.now () in
  let v = f () in
  Hist.record hist (Api.now () - t0);
  v

let traffic (c : Config.t) ~ops hist ~node ~row rng =
  Api.sleep (Rng.int rng 50_000);
  for _ = 1 to ops do
    let home =
      if c.Config.nprocs > 1 && Rng.int rng 100 < 30 then pick_remote c ~node rng else node
    in
    let addr = row home + Rng.int rng 8 in
    if Rng.int rng 4 = 0 then begin
      let v = Rng.int rng 0x10000 in
      timed hist (fun () -> Api.write addr v)
    end
    else ignore (timed hist (fun () -> Api.read addr));
    think rng
  done

let storm (c : Config.t) ~ops hist ~node ~row rng =
  let n = c.Config.nprocs in
  Api.sleep (Rng.int rng 50_000);
  for round = 1 to ops do
    if n > 1 then begin
      for d = 1 to 1 + Rng.int rng (min 4 (n - 1)) do
        ignore (timed hist (fun () -> Api.read (row ((node + d) mod n))))
      done;
      timed hist (fun () -> Api.write (row node) round)
    end;
    think rng
  done

let serve (c : Config.t) ~ops ~offered_rps hist log ~node ~row rng =
  let arrivals = Arrivals.create ~rng (Arrivals.Poisson { rate_rps = offered_rps }) in
  let due = ref (Api.now ()) in
  for _ = 1 to ops do
    due := !due + Arrivals.next_gap_ns arrivals;
    Api.sleep (!due - Api.now ());
    let server = server_of c ~node rng in
    let old = Api.rmw (row server) (fun v -> v + 1) in
    Hist.record hist (Api.now () - !due);
    log := (server, old) :: !log
  done

(* Every server must have handed out the old values 0 .. k-1, once each,
   to the k requests it received: the rmws were atomic at the home. *)
let serve_oracle nodes logs =
  let olds = Array.make nodes [] in
  Array.iter (List.iter (fun (server, old) -> olds.(server) <- old :: olds.(server))) logs;
  Array.for_all
    (fun l -> List.equal Int.equal (List.sort Int.compare l) (List.init (List.length l) Fun.id))
    olds

let run ?check ?shards ?domains ?inject_rate ?seed ?(ops_per_node = 50)
    ?(offered_rps = 25_000.0) ~(config : Config.t) workload =
  let n = config.Config.nprocs in
  let hists = Array.init n (fun _ -> Hist.create ~precision_bits:5 ()) in
  let logs = Array.init n (fun _ -> ref []) in
  let ops = ops_per_node in
  let body ~node ~row ~rng =
    let hist = hists.(node) in
    match workload with
    | Traffic -> traffic config ~ops hist ~node ~row rng
    | Storm -> storm config ~ops hist ~node ~row rng
    | Serve -> serve config ~ops ~offered_rps hist logs.(node) ~node ~row rng
  in
  let verify _ =
    match workload with
    | Traffic | Storm -> true
    | Serve -> serve_oracle n (Array.map (fun l -> !l) logs)
  in
  let r =
    Parkernel.run ?check ?shards ?domains ?inject_rate ?seed ~config
      (Parkernel.Program { name = workload_name workload; image = []; body; verify })
  in
  let latency = Hist.create ~precision_bits:5 () in
  Array.iter (fun h -> Hist.merge ~into:latency h) hists;
  let fp = Fnv.create () in
  Fnv.string fp r.Parkernel.fingerprint;
  Fnv.string fp (Hist.fingerprint latency);
  { run = { r with Parkernel.fingerprint = Fnv.to_hex fp }; latency }
