(* The rule registry and the seeded-mutation must-catch gate.

   Lives beside the rules (not in {!Ast_lint}) because rules depend on
   the framework module; the registry depends on the rules. *)

open Ast_lint

let rules : rule list =
  [ Rule_epoch.rule; Rule_settle.rule; Rule_alloc.rule; Rule_domain.rule ]

let run_rules ?(rules = rules) units =
  List.concat_map (fun (r : rule) -> r.run units) rules |> List.sort compare_findings

let violations findings = List.filter (fun f -> f.allowed = None) findings

(* --- the must-catch gate ---

   A linter that reports nothing is indistinguishable from a linter that
   checks nothing, so each non-trivial rule is validated against a seeded
   mutation of the real tree (the same discipline the mc experiment
   applies to the runtime monitor): delete the [fp_bump] from
   [Coherent.freeze_page], unwrap the [settle] around the kernel's
   [Compute] arm, and strip the allow marker from the shootdown test
   knob, in *in-memory* copies of the sources; the rule must report
   exactly that site as an unexempted violation.  The surgery anchors on
   exact source substrings and fails loudly when they are missing, so a
   refactor that moves a site breaks the gate rather than silently
   testing nothing. *)

type gate = { g_name : string; g_result : (unit, string) result }

let expect_violation ~rule_ ~name findings =
  let hits =
    List.filter
      (fun f -> f.rule = rule_ && f.allowed = None && f.name = name)
      findings
  in
  match hits with
  | _ :: _ -> Ok ()
  | [] ->
    Error
      (Printf.sprintf "rule %s did not report the seeded violation in %s" rule_ name)

let gate_epoch units =
  match
    mutate_unit units ~base:"coherent.ml"
      ~f:(excise ~anchor:"let freeze_page" ~needle:"fp_bump t;")
  with
  | Error e -> Error ("mutation failed: " ^ e)
  | Ok mutated ->
    expect_violation ~rule_:"epoch-soundness" ~name:"Coherent.freeze_page"
      (Rule_epoch.rule.run mutated)

let gate_settle units =
  let wrapped = "settle t th compute_op k ns" in
  let bare = "compute_op t th k ns" in
  match
    mutate_unit units ~base:"kernel.ml"
      ~f:(replace ~anchor:"Eff.Compute" ~needle:wrapped ~repl:bare)
  with
  | Error e -> Error ("mutation failed: " ^ e)
  | Ok mutated ->
    expect_violation ~rule_:"settle-coverage" ~name:"Compute"
      (Rule_settle.rule.run mutated)

let gate_domain units =
  match
    mutate_unit units ~base:"shootdown.ml"
      ~f:(excise ~anchor:"Test-only fault-injection knob" ~needle:"lint: allow toplevel-state")
  with
  | Error e -> Error ("mutation failed: " ^ e)
  | Ok mutated ->
    expect_violation ~rule_:"toplevel-state" ~name:"test_skip_refmask_clear"
      (Rule_domain.rule.run mutated)

let mutation_gate units =
  [
    { g_name = "epoch-soundness catches a deleted fp_bump"; g_result = gate_epoch units };
    { g_name = "settle-coverage catches an unwrapped arm"; g_result = gate_settle units };
    { g_name = "toplevel-state catches a stripped allow marker"; g_result = gate_domain units };
  ]
