(* The rule registry and the seeded-mutation must-catch gate.

   Lives beside the rules (not in {!Ast_lint}) because rules depend on
   the framework module; the registry depends on the rules. *)

open Ast_lint

let rules : rule list = [ Rule_alloc.rule; Rule_domain.rule ]

let run_rules ?(rules = rules) units =
  List.concat_map (fun (r : rule) -> r.run units) rules |> List.sort compare_findings

let violations findings = List.filter (fun f -> f.allowed = None) findings

(* --- the must-catch gate ---

   A linter that reports nothing is indistinguishable from a linter that
   checks nothing, so the toplevel-state rule is validated against a
   seeded mutation of the real tree (the same discipline the mc
   experiment applies to the runtime monitor): strip the allow marker
   from the shootdown test knob in an *in-memory* copy of the source; the
   rule must report exactly that site as an unexempted violation.  The
   surgery anchors on exact source substrings and fails loudly when they
   are missing, so a refactor that moves the site breaks the gate rather
   than silently testing nothing.  Kernel handler coverage needs no rule:
   the services are one closed request type, so the compiler checks that
   the handler is exhaustive and every arm settles by construction. *)

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
    { g_name = "toplevel-state catches a stripped allow marker"; g_result = gate_domain units };
  ]
