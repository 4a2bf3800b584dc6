(* The static-analysis CI gate (see Platinum_check): the typed-AST rules
   of Registry over library sources.  Two modes, one exit-code
   convention: 0 clean, 1 unexempted violations or an uncaught seeded
   mutation, 2 usage or environment errors (missing path, unparseable
   source).

     dune exec bin/lint.exe                          # all rules over lib/
     dune exec bin/lint.exe -- DIR...                # all rules over the trees
     dune exec bin/lint.exe -- --must-catch [DIR...] # seeded-mutation gate *)

module Ast_lint = Platinum_check.Ast_lint
module Registry = Platinum_check.Registry

let load_units dirs =
  let missing = List.filter (fun d -> not (Sys.file_exists d)) dirs in
  if missing <> [] then begin
    List.iter (Printf.eprintf "lint: no such path: %s\n") missing;
    exit 2
  end;
  try Ast_lint.load_dirs dirs
  with Ast_lint.Parse_error msg ->
    Printf.eprintf "lint: %s\n" msg;
    exit 2

let lint dirs =
  let units = load_units dirs in
  let findings = Registry.run_rules units in
  let bad = Registry.violations findings in
  List.iter (fun f -> Format.printf "%a@." Ast_lint.pp_finding f) findings;
  Format.printf "lint: %d file(s), %d rule(s), %d finding(s), %d violation(s)@."
    (List.length units)
    (List.length Registry.rules)
    (List.length findings) (List.length bad);
  if bad <> [] then exit 1

let must_catch dirs =
  let units = load_units dirs in
  let gates = Registry.mutation_gate units in
  let failed =
    List.fold_left
      (fun failed (g : Registry.gate) ->
        match g.g_result with
        | Ok () ->
          Format.printf "must-catch: PASS %s@." g.g_name;
          failed
        | Error e ->
          Format.printf "must-catch: FAIL %s: %s@." g.g_name e;
          failed + 1)
      0 gates
  in
  if failed > 0 then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let default d = function [] -> d | dirs -> dirs in
  match args with
  | "--must-catch" :: rest -> must_catch (default [ "lib" ] rest)
  | dirs -> lint (default [ "lib" ] dirs)
