(* Each layer's host cost in isolation: the "floor" a full run's per-call
   cost can be set against.  Every floor is the median of several timed
   batches, so one preempted batch does not move it. *)

module Engine = Platinum_sim.Engine
module Shard = Platinum_sim.Shard
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Xbar = Platinum_machine.Xbar
module Policy = Platinum_core.Policy
module Rights = Platinum_core.Rights
module Cmap = Platinum_core.Cmap
module Coherent = Platinum_core.Coherent

let batches = 7

let median_batch f =
  let xs = List.init batches (fun _ -> f ()) in
  Stats.median xs

(* Hold model: a constant population of pending events, each of which
   schedules one successor at a fixed pseudo-random delay when it fires. *)
let engine_ns_per_event ~events () =
  let e = Engine.create () in
  let delays = Array.init 4096 (fun i -> 1 + (i * 7919 mod 1000)) in
  let left = ref events and k = ref 0 in
  let rec ev () =
    if !left > 0 then begin
      decr left;
      incr k;
      Engine.schedule_after e ~delay:delays.(!k land 4095) ev
    end
  in
  for i = 0 to 1023 do
    Engine.schedule_at e ~at:delays.(i) ev
  done;
  let t0 = Spans.now_ns () in
  Engine.run e;
  float_of_int (Spans.now_ns () - t0) /. float_of_int (Engine.events_processed e)

(* The hosted window protocol (what hosted_jacobi256 runs, 256 engines on
   one shard) carrying a single no-op event per window: each event
   schedules its successor one lookahead later, i.e. in the next window. *)
let window_ns ~nodes ~windows () =
  let lookahead = Config.lookahead_ns (Config.hierarchical ~nodes ()) in
  let engines = Array.init nodes (fun _ -> Engine.create ()) in
  let h = Shard.host ~check:false ~shards:1 ~lookahead engines in
  let e0 = engines.(0) in
  let left = ref windows in
  let rec ev () =
    if !left > 0 then begin
      decr left;
      Engine.schedule_after e0 ~delay:lookahead ev
    end
  in
  Engine.schedule_at e0 ~at:0 ev;
  let t0 = Spans.now_ns () in
  Shard.run_hosted h;
  float_of_int (Spans.now_ns () - t0) /. float_of_int (Shard.hosted_windows h)

(* One remote single-word read through the interconnect model, spaced so
   the target module is always idle. *)
let xbar_ns ~ops () =
  let cfg = Config.butterfly_plus () in
  let mods = Machine.modules (Machine.create cfg) in
  let acc = ref 0 in
  let t0 = Spans.now_ns () in
  for i = 1 to ops do
    acc := !acc + Xbar.access cfg mods ~now:(i * 10_000) ~proc:0 ~mem_module:1 Xbar.Read ~words:1
  done;
  let dt = Spans.now_ns () - t0 in
  ignore (Sys.opaque_identity !acc);
  float_of_int dt /. float_of_int ops

(* The steady-state micro-ATC hit, driven straight through the scratch
   entry points with the translation warm (no kernel, no effects):
   alternating reads and writes on one single-copy page. *)
let steady_hit_ns ~ops () =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:1024 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let coh =
    Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
      ~frames_per_module:64 ()
  in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  ignore (Coherent.activate coh ~now:0 ~proc:0 ~aspace:(Cmap.aspace cm));
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 1);
  let sc = Coherent.make_scratch () in
  for i = 1 to 1_000 do
    ignore (Coherent.read_word_s coh sc ~now:(i * 1_000) ~proc:0 ~cmap:cm ~vaddr:0)
  done;
  let t0 = Spans.now_ns () in
  for i = 1 to ops do
    let now = (1_000 + i) * 1_000 in
    if i land 1 = 0 then ignore (Coherent.read_word_s coh sc ~now ~proc:0 ~cmap:cm ~vaddr:0)
    else Coherent.write_word_s coh sc ~now ~proc:0 ~cmap:cm ~vaddr:0 i
  done;
  float_of_int (Spans.now_ns () - t0) /. float_of_int ops

let measure ~smoke =
  let k = if smoke then 1 else 250 in
  [
    ("core.steady_hit_floor_ns", median_batch (steady_hit_ns ~ops:(2_000 * k)));
    ("machine.xbar_floor_ns", median_batch (xbar_ns ~ops:(2_000 * k)));
    ("sim.engine_floor_ns_per_event", median_batch (engine_ns_per_event ~events:(2_000 * k)));
    ( "sim.shard.window_floor_ns",
      median_batch (window_ns ~nodes:(Workloads.hosted_nodes ~smoke) ~windows:(20 * k)) );
  ]
