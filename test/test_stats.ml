(* Tests for the instrumentation layer: probes, traces, and the
   post-mortem report. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Rights = Platinum_core.Rights
module Cmap = Platinum_core.Cmap
module Policy = Platinum_core.Policy
module Probe = Platinum_core.Probe
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Report = Platinum_stats.Report
module Trace = Platinum_stats.Trace
module Runner = Platinum_runner.Runner
module Patterns = Platinum_workload.Patterns
module Outcome = Platinum_workload.Outcome

let mk () =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:8 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let coh =
    Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
      ~frames_per_module:16 ()
  in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh ~label:"data" () in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  (coh, cm, page)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Probe --- *)

let is_fault = function Probe.Read_fault _ | Probe.Write_fault _ -> true | _ -> false

let test_probe_event_sequence () =
  let coh, cm, page = mk () in
  let log = ref [] in
  Coherent.set_probe coh (Some (fun ~now:_ ev -> log := ev :: !log));
  ignore (Coherent.submit coh ~now:0 ~proc:0 ~cmap:cm (Memtxn.Write { vaddr = 0; value = 1 }));
  ignore (Word.read coh ~now:1_000_000 ~proc:1 ~cmap:cm ~vaddr:0);
  let events = List.rev !log in
  let has pred = List.exists pred events in
  Alcotest.(check bool) "write fault seen" true
    (has (function Probe.Write_fault { proc = 0; _ } -> true | _ -> false));
  Alcotest.(check bool) "restriction seen" true
    (has (function Probe.Restricted _ -> true | _ -> false));
  Alcotest.(check bool) "replication seen" true
    (has (function Probe.Replicated { copies = 2; _ } -> true | _ -> false));
  ignore page

let test_probe_freeze_thaw_events () =
  let coh, cm, page = mk () in
  let log = ref [] in
  Coherent.set_probe coh (Some (fun ~now:_ ev -> log := ev :: !log));
  ignore (Coherent.submit coh ~now:0 ~proc:0 ~cmap:cm (Memtxn.Write { vaddr = 0; value = 1 }));
  ignore (Word.read coh ~now:1_000 ~proc:1 ~cmap:cm ~vaddr:0);
  ignore (Coherent.submit coh ~now:2_000 ~proc:0 ~cmap:cm (Memtxn.Write { vaddr = 0; value = 2 }));
  ignore (Word.read coh ~now:3_000 ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check bool) "frozen event" true
    (List.exists (function Probe.Frozen _ -> true | _ -> false) !log);
  Coherent.thaw_all coh ~now:2_000_000_000;
  Alcotest.(check bool) "thaw event marked as daemon" true
    (List.exists (function Probe.Thawed { by_daemon = true; _ } -> true | _ -> false) !log);
  ignore page

let test_probe_detach () =
  let coh, cm, _ = mk () in
  let n = ref 0 in
  Coherent.set_probe coh (Some (fun ~now:_ _ -> incr n));
  ignore (Coherent.submit coh ~now:0 ~proc:0 ~cmap:cm (Memtxn.Write { vaddr = 0; value = 1 }));
  let seen = !n in
  Alcotest.(check bool) "probe fired" true (seen > 0);
  Coherent.set_probe coh None;
  ignore (Word.read coh ~now:1_000_000 ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check int) "detached probe silent" seen !n

let test_probe_pp () =
  (* Every constructor renders. *)
  let events =
    [
      Probe.Read_fault { cpage = 1; proc = 2 };
      Probe.Write_fault { cpage = 1; proc = 2 };
      Probe.Replicated { cpage = 1; to_module = 3; copies = 2 };
      Probe.Migrated { cpage = 1; to_module = 3 };
      Probe.Remote_mapped { cpage = 1; proc = 2; frozen = true };
      Probe.Invalidated { cpage = 1; interrupted = 4 };
      Probe.Restricted { cpage = 1; interrupted = 0 };
      Probe.Frozen { cpage = 1 };
      Probe.Thawed { cpage = 1; by_daemon = false };
    ]
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool) "non-empty rendering" true
        (String.length (Format.asprintf "%a" Probe.pp_event ev) > 0))
    events

(* --- Trace --- *)

let test_trace_records () =
  let coh, cm, _ = mk () in
  let tr = Trace.create () in
  Trace.attach tr coh;
  ignore (Coherent.submit coh ~now:5_000 ~proc:0 ~cmap:cm (Memtxn.Write { vaddr = 0; value = 1 }));
  ignore (Word.read coh ~now:1_000_000 ~proc:1 ~cmap:cm ~vaddr:0);
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 0);
  let faults = Trace.count tr is_fault in
  Alcotest.(check int) "two faults" 2 faults;
  (* Timestamps are fault-handling times: the issue time plus the
     address-space activation that precedes the first fault. *)
  let first = List.hd (Trace.entries tr) in
  Alcotest.(check bool) "first event shortly after t=5us" true
    (first.Trace.at >= 5_000 && first.Trace.at < 100_000)

let test_trace_bounded () =
  let tr = Trace.create () in
  let coh, cm, _ = mk () in
  Trace.attach tr coh;
  (* alternate writers to generate a steady stream of protocol events,
     until the recorder has had to drop some *)
  let i = ref 0 in
  while Trace.dropped tr = 0 && !i < 1_000_000 do
    ignore
      (Coherent.submit coh ~now:(100_000_000 * (!i + 1)) ~proc:(!i mod 2) ~cmap:cm
         (Memtxn.Write { vaddr = 0; value = !i }));
    incr i
  done;
  Alcotest.(check int) "capacity respected" 100_000 (Trace.length tr);
  Alcotest.(check bool) "drops counted" true (Trace.dropped tr > 0)

let test_trace_timeline_renders () =
  let coh, cm, _ = mk () in
  let tr = Trace.create () in
  Trace.attach tr coh;
  ignore (Coherent.submit coh ~now:0 ~proc:0 ~cmap:cm (Memtxn.Write { vaddr = 0; value = 1 }));
  let s = Format.asprintf "%a" (Trace.pp_timeline ~limit:10) tr in
  Alcotest.(check bool) "timeline mentions the fault" true
    (String.length s > 0 && contains ~sub:"write fault" s)

(* --- Report --- *)

let run_pattern () =
  let out, main = Patterns.read_shared ~nprocs:4 ~pages:1 ~rounds:2 in
  let r = Runner.time main in
  Alcotest.(check bool) "pattern ok" true out.Outcome.ok;
  r

let test_report_rows () =
  let r = run_pattern () in
  let rep = r.Runner.report in
  Alcotest.(check bool) "has rows" true (List.length rep.Report.pages > 0);
  let heap = Report.find rep ~label_prefix:"heap" in
  Alcotest.(check bool) "heap page row exists" true (heap <> []);
  let row = List.hd heap in
  Alcotest.(check bool) "read faults counted" true (row.Report.read_faults >= 3);
  Alcotest.(check bool) "replications counted" true (row.Report.replications >= 3)

let test_report_sorted_by_faults () =
  let r = run_pattern () in
  let faults row = row.Report.read_faults + row.Report.write_faults in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> faults a >= faults b && nonincreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "rows sorted" true (nonincreasing r.Runner.report.Report.pages)

let test_report_renders () =
  let r = run_pattern () in
  let s = Format.asprintf "%a" (Report.pp ~top:5) r.Runner.report in
  Alcotest.(check bool) "mentions the header" true (contains ~sub:"post-mortem" s)

let test_report_module_stats () =
  let r = run_pattern () in
  let rep = r.Runner.report in
  Alcotest.(check int) "one utilization entry per module" 16
    (Array.length rep.Report.module_utilization);
  Array.iter
    (fun u -> Alcotest.(check bool) "utilization in [0,1]" true (u >= 0.0 && u <= 1.0))
    rep.Report.module_utilization

let suite =
  [
    ("probe: protocol event sequence", `Quick, test_probe_event_sequence);
    ("probe: freeze/thaw events", `Quick, test_probe_freeze_thaw_events);
    ("probe: detach", `Quick, test_probe_detach);
    ("probe: rendering", `Quick, test_probe_pp);
    ("trace: records with timestamps", `Quick, test_trace_records);
    ("trace: bounded buffer", `Quick, test_trace_bounded);
    ("trace: timeline rendering", `Quick, test_trace_timeline_renders);
    ("report: per-page rows", `Quick, test_report_rows);
    ("report: sorted by faults", `Quick, test_report_sorted_by_faults);
    ("report: renders", `Quick, test_report_renders);
    ("report: module statistics", `Quick, test_report_module_stats);
  ]
