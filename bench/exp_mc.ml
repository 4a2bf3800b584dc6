(* Bounded model check of the coherence protocol (the PR 3 sanitizer's
   exhaustive mode; see DESIGN.md section 4c).

   Two passes, both driving the real Coherent system with the invariant
   monitor armed:

   1. The protocol as implemented, under every policy in
      Policy.default_names: explore every read / write / freeze / thaw /
      defrost interleaving of the small configurations to the depth
      bound.  Expected result: zero violations; the reachable-state counts
      are printed (and checked non-trivial), and so is the number of
      protocol transitions each exploration took (the edges the fig4
      experiment prints for the paper's policy).

   2. The mutation check: the same exploration with the deliberately
      broken write-invalidate transition
      (Shootdown.test_skip_refmask_clear — the reference mask is not
      cleared when remote translations are invalidated).  Expected result:
      the checker reports violations.  A checker that stays silent on a
      known-broken protocol proves nothing; this pass fails the experiment
      (exit 1) if the seeded bug goes unnoticed.

   Every policy explores 2 processors / 1 page to depth 8 and 3
   processors / 1 page to depth 5.  The paper's policy also explores 2
   processors / 2 pages to depth 5.  Exploring 2 pages under every policy
   would take the experiment past its 30 s CI budget. *)

module Mc = Platinum_check.Mc

let failed = ref false

let check what ok =
  if not ok then begin
    failed := true;
    Printf.printf "MC_FAIL %s\n%!" what
  end

let run_config ~policy ~nprocs ~npages ~depth =
  let r = Mc.explore ~policy ~nprocs ~npages ~depth () in
  Format.printf "%a@.@." Mc.pp_report r;
  check
    (Printf.sprintf "%s %dp/%dpg depth %d: no violations (got %d)" policy nprocs npages depth
       r.Mc.total_violations)
    (r.Mc.total_violations = 0);
  check
    (Printf.sprintf "%s %dp/%dpg depth %d: exploration is non-trivial (%d states)" policy nprocs
       npages depth r.Mc.states)
    (r.Mc.states > 10);
  check
    (Printf.sprintf "%s %dp/%dpg depth %d: state space not truncated" policy nprocs npages depth)
    (not r.Mc.truncated)

let run_mutation () =
  (* Depth 4 suffices: W0; R1; W0 re-invalidates proc 1's translation with
     the broken refmask clear, and the post-fault sweep trips. *)
  let r = Mc.explore ~mutate:true ~policy:"platinum" ~nprocs:2 ~npages:1 ~depth:4 () in
  Format.printf "%a@.@." Mc.pp_report r;
  check
    (Printf.sprintf "mutation (skip refmask clear) is caught (%d violations)"
       r.Mc.total_violations)
    (r.Mc.total_violations > 0)

let run (scale : Exp_common.scale) =
  Exp_common.section "bounded model check: protocol invariants in every reachable state";
  Exp_common.subsection "as implemented (expect 0 violations)";
  let deeper = if scale.Exp_common.full then 6 else 5 in
  List.iter
    (fun policy ->
      run_config ~policy ~nprocs:2 ~npages:1 ~depth:8;
      if String.equal policy "platinum" then run_config ~policy ~nprocs:2 ~npages:2 ~depth:deeper;
      run_config ~policy ~nprocs:3 ~npages:1 ~depth:deeper)
    Platinum_core.Policy.default_names;
  Exp_common.subsection "mutation check (expect violations: the checker must catch a seeded bug)";
  run_mutation ();
  if !failed then exit 1;
  Printf.printf "MC_OK\n%!"
