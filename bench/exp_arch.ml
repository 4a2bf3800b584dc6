(* Architectural ablations (§4.1, §7).

   abl-arch:    block-transfer speed.  "The existence of a fast block
                transfer mechanism is vital to the performance of any
                program that uses data migration and replication on a
                NUMA machine!" — sweep T_b and watch gauss agree.
   abl-defrost: periodic vs adaptive defrost (§4.2's priority-queue
                alternative) on a phase-changing workload and on a
                permanently hot one. *)

open Exp_common
module Gauss = Platinum_workload.Gauss
module Backprop = Platinum_workload.Backprop
module Patterns = Platinum_workload.Patterns
module Defrost = Platinum_core.Defrost
module M = Platinum_analysis.Migration_model
module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync
module Machine = Platinum_machine.Machine
module Cache = Platinum_machine.Cache

let run_arch (scale : scale) =
  section "Ablation — block-transfer speed (the vital mechanism, §4.1/§7)";
  let nprocs = List.fold_left max 1 scale.procs in
  let n = if scale.full then 400 else 256 in
  Printf.printf "gauss %dx%d on %d processors, PLATINUM policy; times in ms\n\n" n n nprocs;
  Printf.printf "%14s %12s %26s\n" "T_b (ns/word)" "time" "analytic S_min at rho=1,g=1";
  Printf.printf "%s\n" (String.make 56 '-');
  let rows =
    par_map
      (fun t_block ->
        let base = Config.butterfly_plus ~nprocs () in
        let config = { base with Config.t_block_word = t_block } in
        let policy = policy_named "platinum" config in
        let work, _ =
          run_platinum ~config ~policy
            (Gauss.make (Gauss.params ~n ~nprocs ~verify:false ()))
        in
        (t_block, work))
      [ 400; 1_100; 2_300; 4_680; 6_000 ]
  in
  List.iter
    (fun (t_block, work) ->
      let m = { M.butterfly_plus with M.t_block = float_of_int t_block } in
      let smin =
        match M.min_page_words m ~g:1.0 ~rho:1.0 with
        | Some s -> string_of_int s ^ " words"
        | None -> "never pays"
      in
      Printf.printf "%14d %11.1f %26s\n%!" t_block (ms_of work) smin)
    rows;
  Printf.printf
    "\n(T_b = 4680 ns makes T_b = T_r - T_l: at that point moving a word costs\n\
     exactly what one remote reference saves, and migration can never pay —\n\
     the policy's replications become pure overhead, so time climbs steeply.)\n";
  (* The check points are already in the sweep; the simulation is
     deterministic, so the table values ARE the rerun values. *)
  let time_at tb = List.assoc tb rows in
  check_shape "fast block transfer beats a slow one by a wide margin"
    (float_of_int (time_at 6_000) > 1.3 *. float_of_int (time_at 1_100))

let run_defrost (scale : scale) =
  section "Ablation — defrost daemon: periodic vs adaptive (§4.2)";
  let nprocs = 8 in
  ignore scale;
  (* Workload A: a phase change — write-shared then read-only. *)
  let phase_work mode =
    let out, main = Patterns.phase_change ~nprocs ~pages:1 ~rounds:60 in
    let r = Runner.time ?defrost:mode main in
    if not out.Platinum_workload.Outcome.ok then failwith "phase_change failed";
    let c = Coherent.counters r.Runner.setup.Runner.coherent in
    (out.Platinum_workload.Outcome.work_ns, c.Counters.thaws, c.Counters.freezes)
  in
  (* Workload B: permanently hot (round-robin writers, §4.1's worst
     case): every thaw is wrong and costs a refault-and-refreeze storm. *)
  let hot_work mode =
    let config =
      Config.with_policy_params ~t2_defrost_period:50_000_000 (Config.butterfly_plus ~nprocs ())
    in
    let out, main = Patterns.ping_pong ~writers:nprocs ~rounds:40_000 in
    let r = Runner.time ~config ?defrost:mode main in
    if not out.Platinum_workload.Outcome.ok then failwith "ping_pong failed";
    let c = Coherent.counters r.Runner.setup.Runner.coherent in
    (out.Platinum_workload.Outcome.work_ns, c.Counters.thaws, c.Counters.freezes)
  in
  (* Same first thaw delay as the periodic daemon's period, so the only
     difference is the per-page back-off. *)
  let adaptive =
    Some
      (Defrost.Adaptive
         { initial_t2 = 50_000_000; max_t2 = 2_000_000_000; refreeze_window = 100_000_000 })
  in
  let pp_row name (t, thaws, freezes) =
    Printf.printf "  %-26s %9.1fms %6d thaws %6d freezes\n%!" name (ms_of t) thaws freezes
  in
  (* All four (workload, daemon) cells are independent: one fan-out. *)
  let cells =
    par_map
      (fun (wl, mode) -> match wl with `Phase -> phase_work mode | `Hot -> hot_work mode)
      [ (`Phase, None); (`Phase, adaptive); (`Hot, None); (`Hot, adaptive) ]
  in
  let p_per, p_ada, h_per, h_ada =
    match cells with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  Printf.printf "\nphase-change workload (freeze should be undone once):\n";
  pp_row "periodic (t2 = 1s)" p_per;
  pp_row "adaptive" p_ada;
  Printf.printf "\npermanently hot page (every thaw is wrong):\n";
  pp_row "periodic (t2 = 50ms)" h_per;
  pp_row "adaptive (backs off)" h_ada;
  let time (t, _, _) = t and thaws (_, th, _) = th in
  check_shape "adaptive reacts to the phase change (thaws at least once)" (thaws p_ada >= 1);
  check_shape "adaptive not slower on the phase change"
    (float_of_int (time p_ada) <= 1.1 *. float_of_int (time p_per));
  check_shape "adaptive churns the hot page less than periodic"
    (thaws h_ada < thaws h_per);
  check_shape "adaptive not slower on the hot page"
    (float_of_int (time h_ada) <= 1.1 *. float_of_int (time h_per))


(* §7: "the PLATINUM coherent memory system is compatible with a
   generation of NUMA multiprocessors with local caches but without
   internode coherency support...  Almost all data is cachable.  Only
   modified Cpages that are mapped by remote processors cannot be
   cached."  We enable exactly such caches (coherency maintained by the
   coherent memory system in software) and measure two regimes: a
   read-mostly workload whose replicated pages are cachable, and the
   fine-grain backprop whose frozen pages are not. *)
let run_cache (scale : scale) =
  section "Ablation — section 7 local data caches (no hardware coherency)";
  let nprocs = 8 in
  ignore scale;
  let with_caches base = Config.with_local_caches ~words:2_048 ~line_words:4 base in
  (* A word-read-mostly workload over a shared, read-only table. *)
  let table_scan config =
    let work = ref 0 in
    let r =
      Runner.time ~config (fun () ->
          let words = 1_024 in
          let table = Api.alloc_pages 1 in
          Api.block_write table (Array.init words (fun i -> i * 3));
          let zone_sync = Api.new_zone "sync" ~pages:1 in
          let barrier = Sync.Barrier.make ~zone:zone_sync ~parties:nprocs () in
          let worker me =
            Sync.Barrier.wait barrier;
            if me = 0 then work := Api.now ();
            let acc = ref 0 in
            for round = 0 to 63 do
              for i = 0 to words - 1 do
                acc := !acc + Api.read (table + ((i * 17 + round) mod words))
              done
            done;
            if !acc = -1 then failwith "unreachable";
            Sync.Barrier.wait barrier;
            if me = 0 then work := Api.now () - !work
          in
          Api.spawn_join_all
            ~procs:(List.init nprocs (fun i -> i))
            (List.init nprocs (fun me _ -> worker me)))
    in
    (!work, r)
  in
  let base = Config.butterfly_plus ~nprocs () in
  let scans = par_map table_scan [ base; with_caches base ] in
  let (plain, _), (cached, rc) =
    match scans with [ a; b ] -> (a, b) | _ -> assert false
  in
  let hits, misses =
    let machine = rc.Runner.setup.Runner.machine in
    let h = ref 0 and m = ref 0 in
    for p = 0 to nprocs - 1 do
      match Machine.cache machine ~proc:p with
      | Some c ->
        h := !h + Cache.hits c;
        m := !m + Cache.misses c
      | None -> ()
    done;
    (!h, !m)
  in
  Printf.printf "read-mostly table scan (replicated pages are cachable):\n";
  Printf.printf "  without caches %9.1fms\n  with caches    %9.1fms (hit rate %.0f%%)\n"
    (ms_of plain) (ms_of cached)
    (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
  (* Backprop: its pages freeze (modified + remotely mapped) and are
     exactly the ones §7 says cannot be cached. *)
  let bp config =
    let out, main = Backprop.make (Backprop.params ~epochs:2 ~nprocs ~verify:false ()) in
    ignore (Runner.time ~config main);
    out.Platinum_workload.Outcome.work_ns
  in
  let bp_plain, bp_cached =
    match par_map bp [ base; with_caches base ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Printf.printf "\nbackprop (its data pages freeze -> uncachable, the paper's caveat):\n";
  Printf.printf "  without caches %9.1fms\n  with caches    %9.1fms\n" (ms_of bp_plain)
    (ms_of bp_cached);
  (* The lines above round to 0.1 ms; this one pins every exact result. *)
  let fp = Platinum_sim.Fnv.create () in
  List.iter (Platinum_sim.Fnv.int fp) [ plain; cached; hits; misses; bp_plain; bp_cached ];
  Printf.printf "\nfingerprint %s (FNV-1a over the integer ns and counts above)\n"
    (Platinum_sim.Fnv.to_hex fp);
  Printf.printf "\n";
  check_shape "caches speed up the cachable read-mostly workload"
    (float_of_int cached < 0.8 *. float_of_int plain);
  check_shape "frozen pages see no benefit (section 7's caveat)"
    (abs_float (float_of_int bp_cached /. float_of_int bp_plain -. 1.0) < 0.05)
