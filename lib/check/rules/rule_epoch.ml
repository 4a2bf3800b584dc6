(* epoch-soundness: every coherence-visible mutation is bracketed by an
   [fp_epoch] bump (DESIGN.md §4g/§4h).

   The coalescing fast path caches page-eligibility probes against
   [Coherent.fp_epoch]; a mutation of directory, translation or freeze
   state that does not bump the epoch leaves armed fibers draining words
   against a stale probe — the exact bug class the runtime monitor can
   only catch on schedules that exercise it.  This rule proves the
   bracketing statically: it builds the top-level call graph across all
   of [lib/], marks every function in the five state modules whose body
   mutates coherence-visible state (field [<-], [Array.set]/[fill]/[blit]
   on a state-field array, [Flat.set]/[remove]/[clear]), and requires
   each such mutator to either bump directly ([t.fp_epoch <- ...] or a
   call reaching [fp_bump]) or be covered by its callers.

   Coverage is the least fixpoint of

     covered(f) = bumps(f) \/ marked(f)
                  \/ (callers(f) <> {} /\ forall c in callers(f). covered(c))

   — every entry path into [f] passes through a bump, so the mutation is
   bracketed no matter how [f] is reached.  The direction matters: the
   weaker "f can reach a bump" accepts a [freeze_page] whose own bump was
   deleted (it still reaches bumps through the daemon it triggers), so it
   could never catch the seeded mutation the must-catch gate deletes.
   Functions with no in-library callers (public API, called by kernels
   and tests we do not scan) get no caller coverage: they must bump
   themselves or carry a [lint: allow epoch-soundness] marker.  Markers
   participate in propagation — marking a teardown entry point covers the
   helpers only it calls — but a mutator's own marker never makes it
   *structurally* covered: it is reported with [allowed = Some "marker"]
   so the exemption stays visible in [bin/lint.exe] output. *)

open Ast_lint

let rule_id = "epoch-soundness"

(* The modules whose mutable state the fast-path probes read. *)
let state_bases = [ "coherent.ml"; "cpage.ml"; "cmap.ml"; "pmap.ml"; "atc.ml" ]

(* Mutable fields in the state modules that are *not* coherence-visible:
   stats and counters, memo/scratch cells, message-queue bookkeeping, the
   packed mirror (rebuilt from [entries]), and the ATC's one-entry lookup
   cache (keyed so a stale hit is impossible, DESIGN.md §4e). *)
let excluded_fields =
  [
    (* coherent.ml: counters, timestamps, scratch, hooks, id wells *)
    "freezes"; "was_frozen"; "thaws"; "frozen_at"; "last_thaw_at";
    "atc_reloads"; "pages_freed"; "s_latency"; "in_daemon"; "fault_ctx";
    "next_aspace"; "next_cpage"; "probe"; "freeze_hook";
    (* cmap.ml: the shootdown message queue *)
    "queue"; "queue_len"; "queue_dead"; "posted"; "msg_targets"; "msg_done";
    (* pmap.ml: packed mirror of [entries] *)
    "packed";
    (* atc.ml: last-lookup cache *)
    "last_vpage"; "last_entry";
  ]

type node = {
  n_id : string;  (* "Module.func" *)
  n_unit : unit_;
  n_line : int;  (* binding start, for marker scope and findings *)
  mutable n_mutations : (int * string) list;  (* line, construct *)
  mutable n_bumps : bool;
  mutable n_callees : string list;
}

let is_state u = List.mem u.u_base state_bases

(* Pass 1: one node per top-level [let] binding, across every unit. *)
let collect_nodes units =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun u ->
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match binding_name vb.pvb_pat with
                | Some name when name <> "_" ->
                  let id = u.u_module ^ "." ^ name in
                  Hashtbl.replace tbl id
                    {
                      n_id = id;
                      n_unit = u;
                      n_line = vb.pvb_loc.loc_start.pos_lnum;
                      n_mutations = [];
                      n_bumps = false;
                      n_callees = [];
                    }
                | _ -> ())
              vbs
          | _ -> ())
        u.u_ast)
    units;
  tbl

let resolve u tbl (lid : Longident.t) =
  match lid with
  | Lident n ->
    let id = u.u_module ^ "." ^ n in
    if Hashtbl.mem tbl id then Some id else None
  | Ldot _ -> (
    match last_module lid with
    | None -> None
    | Some m ->
      let id = m ^ "." ^ last lid in
      if Hashtbl.mem tbl id then Some id else None)
  | Lapply _ -> None

(* Mutating [Array] primitives and the index of the operand they write. *)
let array_mut_arg = function
  | "set" | "unsafe_set" | "fill" -> Some 0
  | "blit" -> Some 2
  | _ -> None

let field_arg args k =
  match List.nth_opt args k with
  | Some ((_ : Asttypes.arg_label), (a : Parsetree.expression)) -> (
    match a.pexp_desc with
    | Pexp_field (_, { txt = flid; _ }) -> Some (last flid)
    | _ -> None)
  | None -> None

(* Pass 2: walk each node's body for callees, mutations and bumps. *)
let analyze_node tbl (n : node) (body : Parsetree.expression) =
  let u = n.n_unit in
  let state = is_state u in
  let mut line c = n.n_mutations <- (line, c) :: n.n_mutations in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          let line = e.pexp_loc.loc_start.pos_lnum in
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match resolve u tbl txt with
            | Some id ->
              if id <> n.n_id then n.n_callees <- id :: n.n_callees;
              if last txt = "fp_bump" && last_module txt <> Some "Fastpath" then
                n.n_bumps <- true
            | None -> ())
          | Pexp_setfield (_, { txt = flid; _ }, _) ->
            let f = last flid in
            if f = "fp_epoch" then n.n_bumps <- true
            else if state && not (List.mem f excluded_fields) then
              mut line ("field " ^ f ^ " <-")
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when state -> (
            match (last_module txt, last txt) with
            | Some "Flat", (("set" | "remove" | "clear") as op) ->
              mut line ("Flat." ^ op)
            | Some "Array", op -> (
              match array_mut_arg op with
              | Some k -> (
                match field_arg args k with
                | Some f when not (List.mem f excluded_fields) ->
                  mut line (Printf.sprintf "Array.%s on field %s" op f)
                | _ -> ())
              | None -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body

let build units =
  let tbl = collect_nodes units in
  List.iter
    (fun u ->
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match binding_name vb.pvb_pat with
                | Some name when name <> "_" -> (
                  match Hashtbl.find_opt tbl (u.u_module ^ "." ^ name) with
                  | Some n when n.n_unit == u && n.n_line = vb.pvb_loc.loc_start.pos_lnum ->
                    analyze_node tbl n vb.pvb_expr
                  | _ -> ())
                | _ -> ())
              vbs
          | _ -> ())
        u.u_ast)
    units;
  tbl

let marked (n : node) = marker_allows n.n_unit ~rule:rule_id ~line:n.n_line

let run units =
  let tbl = build units in
  (* reverse edges, self-edges dropped (a self-call's entry is dominated
     by the external entries) *)
  let callers = Hashtbl.create 512 in
  Hashtbl.iter
    (fun _ n ->
      List.iter
        (fun callee ->
          let prev = try Hashtbl.find callers callee with Not_found -> [] in
          if not (List.memq n prev) then Hashtbl.replace callers callee (n :: prev))
        n.n_callees)
    tbl;
  let callers_of id = try Hashtbl.find callers id with Not_found -> [] in
  let covered = Hashtbl.create 512 in
  Hashtbl.iter (fun id n -> if n.n_bumps || marked n then Hashtbl.replace covered id ()) tbl;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun id _ ->
        if not (Hashtbl.mem covered id) then begin
          match callers_of id with
          | [] -> ()
          | cs when List.for_all (fun c -> Hashtbl.mem covered c.n_id) cs ->
            Hashtbl.replace covered id ();
            changed := true
          | _ -> ()
        end)
      tbl
  done;
  let findings = ref [] in
  Hashtbl.iter
    (fun id n ->
      if n.n_mutations <> [] then begin
        (* structural coverage deliberately ignores the node's own marker *)
        let structurally =
          n.n_bumps
          ||
          match callers_of id with
          | [] -> false
          | cs -> List.for_all (fun c -> Hashtbl.mem covered c.n_id) cs
        in
        if not structurally then begin
          let muts = List.sort compare n.n_mutations in
          let line, construct = List.hd muts in
          let extra = List.length muts - 1 in
          findings :=
            finding n.n_unit ~rule:rule_id ~line ~name:id ~construct
              ~detail:
                (Printf.sprintf
                   "mutates coherence-visible state (%s%s) on a path no fp_epoch bump brackets"
                   construct
                   (if extra > 0 then Printf.sprintf " and %d more site(s)" extra else ""))
            :: !findings
        end
      end)
    tbl;
  !findings

let rule =
  {
    rule_id;
    rule_doc =
      "every coherence-state mutation in core is bracketed by an fp_epoch bump \
       (static complement of the runtime monitor)";
    run;
  }
