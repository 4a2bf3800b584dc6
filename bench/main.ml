(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 3 and EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                 # everything, reduced sizes
     dune exec bench/main.exe -- fig1 --full  # one experiment, paper sizes
     dune exec bench/main.exe -- --list       # experiment ids *)

open Cmdliner

let experiments : (string * string * (Exp_common.scale -> unit)) list =
  [
    ("fig1", "Gaussian elimination speedup (PLATINUM / Uniform System / SMP)", Exp_fig1.run);
    ("tab1", "Table 1: minimum page size for which migration pays", Exp_tab1.run);
    ("sec4", "cost of basic coherent-memory operations", Exp_sec4.run);
    ("fig4", "protocol state-transition diagram from the implementation", Exp_fig4.run);
    ("fig5", "merge sort speedup vs the Sequent Symmetry model", Exp_fig5.run);
    ("fig6", "recurrent backpropagation speedup", Exp_fig6.run);
    ("anec", "the co-located spin-lock anecdote and the defrost daemon", Exp_anec.run);
    ("abl-t1", "ablation: freeze-window t1 sweep", Exp_abl.run_t1);
    ("abl-pol", "ablation: all policies across the application suite", Exp_abl.run_pol);
    ("abl-page", "ablation: page-size sweep", Exp_abl.run_page);
    ("abl-arch", "ablation: block-transfer speed (the vital mechanism)", Exp_arch.run_arch);
    ("abl-defrost", "ablation: periodic vs adaptive defrost daemon", Exp_arch.run_defrost);
    ("abl-cache", "ablation: section-7 local caches without hardware coherency", Exp_arch.run_cache);
    ( "throughput",
      "wall-clock words/second of the memory hot path (emits BENCH_hotpath.json)",
      Exp_hotpath.run );
    ( "sweep",
      "domain-parallel sweep wall-clock and event-core events/sec (emits BENCH_sweep.json)",
      Exp_sweep.run );
    ( "scale",
      "sharded engine over hierarchical machines past the Butterfly (emits \
       BENCH_scale.json)",
      Exp_scale.run );
    ( "mc",
      "bounded model check: protocol invariants in every reachable state + mutation check",
      Exp_mc.run );
    ( "soak",
      "fault-injection soak: workloads correct + deterministic under faults (emits \
       BENCH_soak.json)",
      Exp_soak.run );
    ( "serve",
      "open-loop request serving: tail latency per transport + SLO under faults (emits \
       BENCH_serve.json)",
      Exp_serve.run );
  ]

let run_selected names full procs jobs shards list_only =
  if list_only then begin
    List.iter (fun (id, doc, _) -> Printf.printf "%-10s %s\n" id doc) experiments;
    0
  end
  else begin
    Platinum_runner.Par.set_jobs jobs;
    if shards < 0 then invalid_arg "--shards: negative shard count";
    let scale = { Exp_common.full; procs; shards = max shards 1 } in
    let targets =
      match names with
      | [] -> experiments
      | names ->
        List.map
          (fun n ->
            match List.find_opt (fun (id, _, _) -> id = n) experiments with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %S; try --list\n" n;
              exit 2)
          names
    in
    let t0 = Sys.time () in
    List.iter (fun (_, _, f) -> f scale) targets;
    Printf.printf "\n(harness done in %.1fs of host CPU time)\n" (Sys.time () -. t0);
    0
  end

let names_arg =
  let doc = "Experiments to run (default: all).  See --list." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let full_arg =
  let doc = "Use the paper's full problem sizes (slower)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let procs_arg =
  let doc = "Processor counts for speedup curves (comma separated)." in
  Arg.(value & opt (list int) Exp_common.default_procs & info [ "procs" ] ~doc)

let jobs_arg =
  let doc =
    "Host domains, for sweep grids (independent simulations side by side) and for \
     driving the shards of one sharded simulation (default: \
     Domain.recommended_domain_count; 1 reproduces today's sequential behavior \
     exactly).  Results are byte-identical at any -j."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Event-queue shards for intra-simulation parallelism (the scale experiment; \
     default 1 = the sequential engine, bit for bit).  Orthogonal to -j: --shards \
     splits one simulation, -j supplies the domains that drive it.  Results are \
     byte-identical at any shard count."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)

let list_arg =
  let doc = "List experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let cmd =
  let doc = "regenerate the tables and figures of the PLATINUM paper" in
  let info = Cmd.info "platinum-bench" ~doc in
  Cmd.v info
    Term.(
      const run_selected $ names_arg $ full_arg $ procs_arg $ jobs_arg $ shards_arg
      $ list_arg)

let () = exit (Cmd.eval' cmd)
