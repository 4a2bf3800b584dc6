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
   checks nothing, so each rule is validated against a seeded mutation of
   the real tree (the same discipline the mc experiment applies to the
   runtime monitor), made in an *in-memory* copy of the source:
   toplevel-state must report the shootdown test knob once its allow
   marker is stripped, and zero-alloc must report [Coherent.submit] once
   it returns a tuple again.  The surgery anchors on exact source
   substrings and fails loudly when they are missing, so a refactor that
   moves the site breaks the gate rather than silently testing nothing.
   Kernel handler coverage needs no rule: the services are one closed
   request type, so the compiler checks that the handler is exhaustive
   and every arm settles by construction. *)

type gate = { g_name : string; g_result : (unit, string) result }

(* [r] run over [units] with [base] mutated by [f] must report [name] as
   an unexempted violation. *)
let seeded g_name (r : rule) units ~base ~f ~name =
  let g_result =
    match mutate_unit units ~base ~f with
    | Error e -> Error ("mutation failed: " ^ e)
    | Ok mutated ->
      let hit f = f.rule = r.rule_id && f.allowed = None && f.name = name in
      if List.exists hit (r.run mutated) then Ok ()
      else
        Error (Printf.sprintf "rule %s did not report the seeded violation in %s" r.rule_id name)
  in
  { g_name; g_result }

let mutation_gate units =
  [
    seeded "toplevel-state catches a stripped allow marker" Rule_domain.rule units
      ~base:"shootdown.ml" ~name:"test_skip_refmask_clear"
      ~f:(excise ~anchor:"Test-only fault-injection knob" ~needle:"lint: allow toplevel-state");
    seeded "zero-alloc catches a tuple-returning submit" Rule_alloc.rule units
      ~base:"coherent.ml" ~name:"Coherent.submit"
      ~f:(excise ~anchor:"let submit t ~now" ~needle:"t.scratch.s_latency"
            ~by:"(!(t.fp_value), t.scratch.s_latency)");
  ]
