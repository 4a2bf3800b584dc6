(* platinum-report: run a workload on a configurable machine/policy and
   print the kernel's post-mortem memory-management report.

   Examples:
     dune exec bin/platinum_report.exe -- gauss --n 128 --procs 8
     dune exec bin/platinum_report.exe -- backprop --policy always-replicate
     dune exec bin/platinum_report.exe -- mergesort --page-bytes 1024 --counters *)

open Cmdliner
module Config = Platinum_machine.Config
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Runner = Platinum_runner.Runner
module Report = Platinum_stats.Report
module Trace = Platinum_stats.Trace
module Outcome = Platinum_workload.Outcome
module Time_ns = Platinum_sim.Time_ns

let workloads = [ "gauss"; "gauss-mp"; "mergesort"; "backprop"; "jacobi"; "anecdote" ]

let build_workload name ~n ~nprocs =
  let module W = Platinum_workload in
  match name with
  | "gauss" -> W.Gauss.make (W.Gauss.params ~n ~nprocs ())
  | "gauss-mp" -> W.Gauss_mp.make (W.Gauss_mp.params ~n ~nprocs ())
  | "mergesort" ->
    let nprocs =
      (* round workers down to a power of two *)
      let rec p2 v = if v * 2 > nprocs then v else p2 (v * 2) in
      p2 1
    in
    W.Mergesort.make (W.Mergesort.params ~n:(n * 64) ~nprocs ())
  | "backprop" -> W.Backprop.make (W.Backprop.params ~nprocs ())
  | "jacobi" -> W.Jacobi.make (W.Jacobi.params ~n:(max 8 n) ~nprocs:(min nprocs (max 1 (n - 2))) ())
  | "anecdote" -> W.Anecdote.make (W.Anecdote.params ~old_version:true ~nprocs ())
  | other ->
    Printf.eprintf "unknown workload %S (expected one of: %s)\n" other
      (String.concat ", " workloads);
    exit 2

let run workload n procs page_bytes policy_name t1_ms t2_ms top counters trace =
  if page_bytes mod 4 <> 0 || page_bytes < 64 then begin
    Printf.eprintf "--page-bytes must be a multiple of 4, at least 64\n";
    exit 2
  end;
  let config =
    Config.with_policy_params
      ~t1_freeze_window:(t1_ms * 1_000_000)
      ~t2_defrost_period:(t2_ms * 1_000_000)
      (Config.butterfly_plus ~nprocs:procs ~page_words:(page_bytes / 4) ())
  in
  let policy =
    match Policy.of_string ~t1:config.Config.t1_freeze_window policy_name with
    | Ok p -> p
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
  in
  let out, main = build_workload workload ~n ~nprocs:procs in
  Format.printf "running %s on %a, policy %s@." workload Config.pp config (Policy.name policy);
  let setup = Runner.make ~config ~policy () in
  let recorder =
    if trace > 0 then begin
      let tr = Trace.create () in
      Trace.attach tr setup.Runner.coherent;
      Some tr
    end
    else None
  in
  let result = Runner.run setup ~main in
  if not out.Outcome.ok then begin
    Printf.eprintf "VERIFICATION FAILED: %s\n" out.Outcome.detail;
    exit 1
  end;
  Format.printf "@.result verified; timed phase %a, whole run %a@.@." Time_ns.pp
    out.Outcome.work_ns Time_ns.pp result.Runner.elapsed;
  Format.printf "%a@." (Report.pp ~top) result.Runner.report;
  if counters then
    Format.printf "@.%a@." Counters.pp (Coherent.counters result.Runner.setup.Runner.coherent);
  (match recorder with
  | Some tr -> Format.printf "@.%a@." (Trace.pp_timeline ~limit:trace) tr
  | None -> ());
  0

let workload_arg =
  Arg.(value & pos 0 string "gauss" & info [] ~docv:"WORKLOAD"
         ~doc:(Printf.sprintf "One of: %s." (String.concat ", " workloads)))

let n_arg =
  Arg.(value & opt int 128 & info [ "size"; "n" ] ~doc:"Problem size (matrix dimension, etc.).")

let procs_arg = Arg.(value & opt int 16 & info [ "procs" ] ~doc:"Processors.")

let page_arg =
  Arg.(value & opt int 4096 & info [ "page-bytes" ] ~doc:"Page size in bytes.")

let policy_arg =
  Arg.(value & opt string "platinum"
       & info [ "policy" ]
           ~doc:(Printf.sprintf "Replication policy: %s." (String.concat ", " Policy.default_names)))

let t1_arg = Arg.(value & opt int 10 & info [ "t1-ms" ] ~doc:"Freeze window t1 (ms).")
let t2_arg = Arg.(value & opt int 1000 & info [ "t2-ms" ] ~doc:"Defrost period t2 (ms).")
let top_arg = Arg.(value & opt int 20 & info [ "top" ] ~doc:"Report rows to print.")

let counters_arg =
  Arg.(value & flag & info [ "counters" ] ~doc:"Also print global protocol counters.")

let trace_arg =
  Arg.(value & opt int 0
       & info [ "trace" ] ~doc:"Print the first N protocol events as a timeline (0 = off).")

let cmd =
  let doc = "run a PLATINUM workload and print the kernel post-mortem report" in
  Cmd.v
    (Cmd.info "platinum-report" ~doc)
    Term.(
      const run $ workload_arg $ n_arg $ procs_arg $ page_arg $ policy_arg $ t1_arg $ t2_arg
      $ top_arg $ counters_arg $ trace_arg)

let () = exit (Cmd.eval' cmd)
