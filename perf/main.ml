(* The benchmark of the simulator's host cost.  See README.md in this
   directory for the workloads, the metrics and how to read them.

     main.exe [--workload NAME]... [--seed N] [--reps N] [--seconds S]
              [--trace [0|1]] [--out FILE]
     main.exe --smoke [--benchmark-json FILE]
     main.exe compare A.json B.json

   Every repetition of a workload runs in a fresh process (this program,
   re-executed with --child), so heap sizes and allocation counts are the
   run's own.  With one --workload, the last line of standard output is a
   one-line JSON summary: correct, attempted, failed, and the BENCHMARK.json
   metrics (end-to-end, or per-layer with --trace 1). *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable reps : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable smoke : bool;
  mutable benchmark_json : string;
}

let usage =
  "usage: main.exe [--workload NAME]... [--seed N] [--reps N] [--seconds S] [--trace [0|1]] \
   [--out FILE]\n\
  \       main.exe --smoke [--benchmark-json FILE]\n\
  \       main.exe compare A.json B.json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

let host_meta (o : opts) =
  Json.Obj
    [
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("word_size_bits", Json.Num (float_of_int Sys.word_size));
      ("reps", Json.Num (float_of_int o.reps));
      ("seconds", Json.Num o.seconds);
      ("seed", Json.Num (float_of_int o.seed));
      ("smoke", Json.Bool o.smoke);
    ]

(* --- child processes --- *)

(* Run [f] with standard output moved to standard error, and marshal its
   result to the real standard output, which is the parent's pipe. *)
let as_child f =
  let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  Marshal.to_channel out (f ()) [];
  close_out out;
  exit 0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* A run that produced no measurement: one attempted op, failed. *)
let failed_run detail =
  {
    Workloads.setup_s = 0.0;
    wall_s = 0.0;
    attempted = 1;
    ops = 0;
    ok = false;
    detail;
    minor_words = 0.0;
    heap_peak_mb = 0.0;
    sim_ns = 0;
    fingerprint = "";
    layers = [];
  }

let child_workload o name =
  let w = match Workloads.find name with Some w -> w | None -> die "unknown workload %S" name in
  as_child (fun () ->
      let r =
        try w.Workloads.run ~smoke:o.smoke ~seed:o.seed ~traced:o.trace
        with exn -> failed_run ("raised " ^ Printexc.to_string exn)
      in
      { r with Workloads.heap_peak_mb = heap_peak_mb () })

let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  close_in ic;
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> v | _ -> None

let common_args o = [ "--seed"; string_of_int o.seed ] @ if o.smoke then [ "--smoke" ] else []

let run_child o name ~traced : Workloads.outcome =
  match spawn ([ "--child"; name; "--trace"; (if traced then "1" else "0") ] @ common_args o) with
  | Some r -> r
  | None -> failed_run "the run's process failed"

let run_floors o : (string * float) list =
  match spawn ("--floors" :: common_args o) with
  | Some f -> f
  | None -> die "the floors process failed"

(* --- one workload --- *)

type result = {
  w : Workloads.t;
  reps : Workloads.outcome list;  (* untraced, in run order *)
  traced : Workloads.outcome option;
  problems : string list;
  per_layer : (string * float) list;  (* empty unless traced *)
}

let failed_ops (r : Workloads.outcome) = if r.ok then r.attempted - r.ops else r.attempted

(* Repetitions continue until [reps] have run and, when [seconds] is set,
   until one more typical repetition would overrun it. *)
let run_workload (o : opts) ~floors (w : Workloads.t) =
  let t_start = Spans.now_ns () in
  let durations = ref [] and reps = ref [] in
  let more () =
    let n = List.length !durations in
    n < o.reps || Spans.seconds_since t_start +. Stats.median !durations <= o.seconds
  in
  while more () do
    let t = Spans.now_ns () in
    reps := run_child o w.name ~traced:false :: !reps;
    durations := Spans.seconds_since t :: !durations
  done;
  let reps = List.rev !reps in
  let traced = if o.trace then Some (run_child o w.name ~traced:true) else None in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter (fun (r : Workloads.outcome) -> if not r.ok then problem "%s" r.detail) reps;
  let first = List.hd reps in
  if List.exists (fun (r : Workloads.outcome) -> r.fingerprint <> first.fingerprint) reps then
    problem "untraced runs of one seed disagree";
  (match traced with
  | Some t ->
    if not t.ok then problem "traced run: %s" t.detail;
    if t.fingerprint <> first.fingerprint || t.sim_ns <> first.sim_ns then
      problem "tracing changed the simulation (fingerprint %s vs %s)" t.fingerprint
        first.fingerprint
  | None -> ());
  let per_layer =
    match traced with
    | None -> []
    | Some t ->
      let wall = Stats.median (List.map (fun (r : Workloads.outcome) -> r.wall_s) reps) in
      let find k = List.assoc_opt k (t.layers @ floors) in
      let derived =
        [
          ("model.sim_ns", float_of_int t.sim_ns);
          ("trace.overhead_frac", (t.wall_s /. wall) -. 1.0);
        ]
        @ (match find "sim.events" with
          | Some ev -> [ ("sim.host_ns_per_event", wall *. 1e9 /. ev) ]
          | None -> [])
        @
        match (find "sim.shard.windows", find "sim.shard.window_floor_ns") with
        | Some windows, Some floor ->
          [ ("sim.shard.window_floor_share", windows *. floor /. (wall *. 1e9)) ]
        | _ -> []
      in
      t.layers @ floors @ derived
  in
  { w; reps; traced; problems = List.rev !problems; per_layer }

let correct r = r.problems = []

let all_runs r = r.reps @ Option.to_list r.traced

let attempted r = List.fold_left (fun a (x : Workloads.outcome) -> a + x.attempted) 0 (all_runs r)

(* A run whose output disagrees with the others counts every op as failed. *)
let failed r =
  if correct r then List.fold_left (fun a x -> a + failed_ops x) 0 (all_runs r) else attempted r

let e2e_values (r : Workloads.outcome) =
  let per a b = if b = 0.0 then 0.0 else a /. b in
  [
    ("wall_s", r.wall_s);
    ("setup_s", r.setup_s);
    ("ops_per_s", per (float_of_int r.ops) r.wall_s);
    ("minor_words_per_op", per r.minor_words (float_of_int r.ops));
    ("heap_peak_mb", r.heap_peak_mb);
    ("failed_frac", per (float_of_int (failed_ops r)) (float_of_int r.attempted));
  ]

let e2e_series r name = List.map (fun x -> List.assoc name (e2e_values x)) r.reps

(* --- output --- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_result r ~smoke =
  Printf.printf "\n%s  (%s)\n" r.w.Workloads.name (r.w.Workloads.params ~smoke);
  Printf.printf "  %-22s %-10s %14s %14s %14s  (%d runs)\n" "end-to-end" "unit" "median" "q1" "q3"
    (List.length r.reps);
  List.iter
    (fun (m : Metrics.t) ->
      let xs = e2e_series r m.name in
      let q1, q3 = Stats.quartiles xs in
      Printf.printf "  %-22s %-10s %14s %14s %14s\n" m.name m.unit (fmt_value (Stats.median xs))
        (fmt_value q1) (fmt_value q3))
    Metrics.end_to_end;
  if r.per_layer <> [] then begin
    Printf.printf "  %-36s %-14s %14s\n" "per-layer (traced run)" "unit" "value";
    List.iter
      (fun (m : Metrics.t) ->
        match List.assoc_opt m.name r.per_layer with
        | Some v -> Printf.printf "  %-36s %-14s %14s\n" m.name m.unit (fmt_value v)
        | None -> ())
      Metrics.per_layer
  end;
  Printf.printf "  fingerprint %s; %s\n%!" (List.hd r.reps).Workloads.fingerprint
    (if correct r then "outputs correct" else "INCORRECT: " ^ String.concat "; " r.problems)

let metric_obj (m : Metrics.t) v = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ]

(* The one-line summary for a single-workload invocation. *)
let summary_line r ~trace =
  let metrics =
    if trace then
      List.filter_map
        (fun (m : Metrics.t) ->
          if not m.listed then None
          else Option.map (fun v -> (m.name, metric_obj m v)) (List.assoc_opt m.name r.per_layer))
        Metrics.per_layer
    else
      List.filter_map
        (fun (m : Metrics.t) ->
          if m.listed then Some (m.name, metric_obj m (Stats.median (e2e_series r m.name)))
          else None)
        Metrics.end_to_end
  in
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int (attempted r)));
      ("failed", Json.Num (float_of_int (failed r)));
      ("metrics", Json.Obj metrics);
    ]

let report_json o results =
  let workload r =
    ( r.w.Workloads.name,
      Json.Obj
        [
          ("params", Json.Str (r.w.Workloads.params ~smoke:o.smoke));
          ("correct", Json.Bool (correct r));
          ("problems", Json.Arr (List.map (fun s -> Json.Str s) r.problems));
          ("attempted", Json.Num (float_of_int (attempted r)));
          ("failed", Json.Num (float_of_int (failed r)));
          ("fingerprint", Json.Str (List.hd r.reps).Workloads.fingerprint);
          ( "end_to_end",
            Json.Obj
              (List.map
                 (fun (m : Metrics.t) ->
                   let xs = e2e_series r m.name in
                   ( m.name,
                     Json.Obj
                       [
                         ("unit", Json.Str m.unit);
                         ("median", Json.Num (Stats.median xs));
                         ("values", Json.Arr (List.map (fun x -> Json.Num x) xs));
                       ] ))
                 Metrics.end_to_end) );
          ( "per_layer",
            if r.per_layer = [] then Json.Null
            else
              Json.Obj
                (List.map
                   (fun (m : Metrics.t) ->
                     ( m.name,
                       Json.Obj
                         [
                           ("unit", Json.Str m.unit);
                           ( "value",
                             match List.assoc_opt m.name r.per_layer with
                             | Some v -> Json.Num v
                             | None -> Json.Null );
                         ] ))
                   Metrics.per_layer) );
        ] )
  in
  Json.Obj [ ("host", host_meta o); ("workloads", Json.Obj (List.map workload results)) ]

let run_benchmark (o : opts) =
  let ws =
    match o.workloads with
    | [] -> Workloads.all
    | names ->
      List.map
        (fun n ->
          match Workloads.find n with
          | Some w -> w
          | None -> die "unknown workload %S\n%s" n usage)
        names
  in
  Printf.printf "# perf: cores=%d ocaml=%s word_size=%d reps>=%d seconds=%g seed=%d%s%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size o.reps o.seconds o.seed
    (if o.trace then " traced" else "")
    (if o.smoke then " smoke" else "");
  let floors = if o.trace then run_floors o else [] in
  let results =
    List.map
      (fun w ->
        let r = run_workload o ~floors w in
        print_result r ~smoke:o.smoke;
        r)
      ws
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Json.to_string (report_json o results));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    o.out;
  (match results with
  | [ r ] -> print_endline (Json.to_string (summary_line r ~trace:o.trace))
  | _ -> ());
  results

(* --- compare --- *)

let compare_reports path_a path_b =
  let load p = try Json.read_file p with Sys_error e | Json.Parse_error e -> die "%s: %s" p e in
  let a = load path_a and b = load path_b in
  let workloads j = match Json.member "workloads" j with Some (Json.Obj l) -> l | _ -> [] in
  let bad = ref 0 in
  Printf.printf "%-18s %-20s %12s %25s %12s %25s %9s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "change" "verdict";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name (workloads b) with
      | None -> Printf.printf "%-18s only in %s\n" name path_a
      | Some wb ->
        let series w section m =
          match Option.bind (Json.member section w) (Json.member m) with
          | Some o -> (
            match Json.member "values" o with
            | Some vs -> List.filter_map Json.to_num (Json.to_list vs)
            | None -> Option.to_list (Option.bind (Json.member "value" o) Json.to_num))
          | None -> []
        in
        List.iter
          (fun (m : Metrics.t) ->
            match (series wa "end_to_end" m.name, series wb "end_to_end" m.name) with
            | [], _ | _, [] -> ()
            | xa, xb ->
              let ma = Stats.median xa and mb = Stats.median xb in
              let qa1, qa3 = Stats.quartiles xa and qb1, qb3 = Stats.quartiles xb in
              let worse = match m.better with Lower -> mb -. ma | _ -> ma -. mb in
              let allowed = Metrics.allowance m ma in
              let wide xs =
                let q1, q3 = Stats.quartiles xs in
                q3 -. q1 > Metrics.allowance m (Stats.median xs)
              in
              let unresolved = allowed > 0.0 && (wide xa || wide xb) in
              let verdict =
                if unresolved then "unresolved"
                else if worse > allowed then "WORSE"
                else if worse < -.allowed then "better"
                else "within bound"
              in
              if unresolved || verdict = "WORSE" then incr bad;
              Printf.printf "%-18s %-20s %12s %25s %12s %25s %+8.2f%%  %s\n" name m.name
                (fmt_value ma)
                (Printf.sprintf "[%s, %s]" (fmt_value qa1) (fmt_value qa3))
                (fmt_value mb)
                (Printf.sprintf "[%s, %s]" (fmt_value qb1) (fmt_value qb3))
                (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
                verdict)
          Metrics.end_to_end;
        List.iter
          (fun (m : Metrics.t) ->
            match (series wa "per_layer" m.name, series wb "per_layer" m.name) with
            | [ va ], [ vb ] ->
              let verdict =
                if m.exact then if va = vb then "identical" else "CHANGED" else ""
              in
              if verdict = "CHANGED" then incr bad;
              Printf.printf "%-18s %-20s %12s %25s %12s %25s %9s  %s\n" name m.name
                (fmt_value va) "" (fmt_value vb) "" "" verdict
            | _ -> ())
          Metrics.per_layer;
        let fp w = Option.bind (Json.member "fingerprint" w) Json.to_str in
        if fp wa <> fp wb then begin
          incr bad;
          Printf.printf "%-18s fingerprints differ: the simulated outputs changed\n" name
        end)
    (workloads a);
  Printf.printf "%d pair(s) worse, unresolved or changed\n" !bad;
  exit (if !bad = 0 then 0 else 1)

(* --- smoke --- *)

(* Tiny sizes of every workload, untraced and traced, checked against the
   catalogue and against BENCHMARK.json. *)
let smoke (o : opts) =
  o.smoke <- true;
  o.trace <- true;
  o.reps <- 1;
  o.seconds <- 0.0;
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let bench =
    try Json.read_file o.benchmark_json with Sys_error e | Json.Parse_error e -> die "%s" e
  in
  let listed key =
    List.filter_map
      (fun m ->
        match (Option.bind (Json.member "name" m) Json.to_str, m) with
        | Some n, m -> Some (n, m)
        | None, _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member key bench)))
  in
  let check_listed key catalogue =
    let entries = listed key in
    let expected = List.filter (fun (m : Metrics.t) -> m.listed) catalogue in
    List.iter
      (fun (m : Metrics.t) ->
        match List.assoc_opt m.name entries with
        | None -> error "BENCHMARK.json %s lacks %s" key m.name
        | Some j ->
          let str k = Option.bind (Json.member k j) Json.to_str in
          if str "unit" <> Some m.unit then error "BENCHMARK.json: %s unit differs" m.name;
          if str "better" <> Some (Metrics.better_to_string m.better) then
            error "BENCHMARK.json: %s direction differs" m.name;
          match Option.bind (Json.member "bound" j) Json.to_num with
          | Some b when b <> m.bound -> error "BENCHMARK.json: %s bound differs" m.name
          | _ -> ())
      expected;
    List.iter
      (fun (n, _) ->
        if not (List.exists (fun (m : Metrics.t) -> m.name = n) expected) then
          error "BENCHMARK.json %s lists %s, which the catalogue does not" key n)
      entries
  in
  check_listed "end_to_end" Metrics.end_to_end;
  check_listed "per_layer" Metrics.per_layer;
  if List.map fst (listed "workloads") <> List.map (fun w -> w.Workloads.name) Workloads.all then
    error "BENCHMARK.json workloads differ from the benchmark's";
  let results = run_benchmark o in
  List.iter
    (fun r ->
      let name = r.w.Workloads.name in
      if not (correct r) then error "%s: %s" name (String.concat "; " r.problems);
      List.iter
        (fun trace ->
          let line = Json.parse (Json.to_string (summary_line r ~trace)) in
          let expected =
            List.filter (fun (m : Metrics.t) -> m.listed)
              (if trace then Metrics.per_layer else Metrics.end_to_end)
          in
          List.iter
            (fun (m : Metrics.t) ->
              match Option.bind (Json.member "metrics" line) (Json.member m.name) with
              | Some v when Option.bind (Json.member "unit" v) Json.to_str = Some m.unit
                            && Option.bind (Json.member "value" v) Json.to_num <> None ->
                ()
              | _ -> error "%s: %s not emitted with its unit" name m.name)
            expected)
        [ false; true ];
      match List.assoc_opt "kernel.self_s" r.per_layer with
      | Some s when s < 0.0 -> error "%s: kernel.self_s is negative" name
      | _ -> ())
    results;
  match List.rev !errors with
  | [] -> print_endline "smoke: ok"
  | es ->
    List.iter (fun e -> prerr_endline ("smoke: " ^ e)) es;
    exit 1

(* --- command line --- *)

let () =
  let o =
    {
      workloads = [];
      seed = 42;
      reps = 3;
      seconds = 0.0;
      trace = false;
      out = None;
      smoke = false;
      benchmark_json = "BENCHMARK.json";
    }
  in
  let mode = ref `Run in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer" flag
  in
  let rec parse = function
    | [] -> ()
    | "compare" :: a :: b :: rest ->
      mode := `Compare (a, b);
      parse rest
    | "--workload" :: v :: rest ->
      o.workloads <- o.workloads @ [ v ];
      parse rest
    | "--seed" :: v :: rest ->
      o.seed <- int_arg "--seed" v;
      parse rest
    | "--reps" :: v :: rest ->
      o.reps <- max 1 (int_arg "--reps" v);
      parse rest
    | "--seconds" :: v :: rest ->
      o.seconds <-
        (match float_of_string_opt v with Some s -> s | None -> die "--seconds wants a number");
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      parse rest
    | "--trace" :: rest ->
      o.trace <- true;
      parse rest
    | "--out" :: v :: rest ->
      o.out <- Some v;
      parse rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      parse rest
    | "--benchmark-json" :: v :: rest ->
      o.benchmark_json <- v;
      parse rest
    | "--child" :: v :: rest ->
      mode := `Child v;
      parse rest
    | "--floors" :: rest ->
      mode := `Floors;
      parse rest
    | ("-h" | "--help") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !mode with
  | `Compare (a, b) -> compare_reports a b
  | `Child name -> child_workload o name
  | `Floors -> as_child (fun () -> Floors.measure ~smoke:o.smoke)
  | `Run when o.smoke -> smoke o
  | `Run ->
    let results = run_benchmark o in
    if not (List.for_all correct results) then exit 1
