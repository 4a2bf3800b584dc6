(* toplevel-state: library code holds no unmarked toplevel mutable state.

   Library code runs on parallel domains two ways: the sweep harness fans
   independent simulations over a pool (grid parallelism), and the
   sharded engine splits one simulation's nodes across domains — so a
   [ref], a [Hashtbl.t] or any other mutable container created at module
   toplevel is shared, unsynchronized, across domains: a data race
   waiting for a schedule.  Per-instance state is fine in both regimes.

   The rule walks every value binding at module toplevel, nested [module]
   structures and [include]s too, and flags each mutable-container
   constructor in its right-hand side.  [Atomic.make] is reported as
   allowed; a [lint: allow toplevel-state] marker documenting why the
   state is safe (e.g. a test-only knob never touched under parallelism)
   waives a finding.  Bindings whose right-hand side is a function are
   skipped (they allocate per call), and so are functor bodies (per
   application). *)

open Ast_lint

let rule_id = "toplevel-state"

(* The flagged dotted constructors; [ref] and [lazy] have their own AST
   shapes.  Copies and conversions allocate fresh containers too. *)
let constructs =
  [
    "Hashtbl.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
    "Queue.create";
    "Stack.create";
    "Weak.create";
    "Dynarray.create";
    "Domain.DLS.new_key";
    "Float.Array.create";
    "Array.copy";
    "Array.of_list";
    "Array.append";
    "Bytes.copy";
    "Bytes.of_string";
    "Hashtbl.copy";
    "Hashtbl.of_seq";
    "Hashtbl.of_list";
    "Queue.copy";
  ]

let scan_binding u ~name (rhs : Parsetree.expression) acc =
  let out = ref acc in
  let add ?allowed (e : Parsetree.expression) construct =
    out :=
      finding ?allowed u ~rule:rule_id ~line:e.pexp_loc.loc_start.pos_lnum ~name ~construct
        ~detail:(Printf.sprintf "toplevel mutable state: [%s] binds %s" name construct)
      :: !out
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_lazy _ -> add e "lazy"
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
            let f = flatten txt in
            if f = "Atomic.make" then add ~allowed:"Atomic" e "Atomic.make"
            else if f = "ref" then add e "ref"
            else if List.mem f constructs then add e f
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it rhs;
  !out

let rec scan_structure u (str : Parsetree.structure) acc =
  List.fold_left
    (fun acc (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            if is_function vb.pvb_expr then acc
            else
              let name =
                match binding_name vb.pvb_pat with Some n -> n | None -> "<pattern>"
              in
              scan_binding u ~name vb.pvb_expr acc)
          acc vbs
      | Pstr_module mb -> scan_module_expr u mb.pmb_expr acc
      | Pstr_recmodule mbs ->
        List.fold_left (fun acc (mb : Parsetree.module_binding) -> scan_module_expr u mb.pmb_expr acc) acc mbs
      | Pstr_include incl -> scan_module_expr u incl.pincl_mod acc
      | _ -> acc)
    acc str

and scan_module_expr u (me : Parsetree.module_expr) acc =
  match me.pmod_desc with
  | Pmod_structure str -> scan_structure u str acc
  | Pmod_constraint (me, _) -> scan_module_expr u me acc
  | Pmod_functor _ -> acc (* per-application, like a function body *)
  | _ -> acc

let run units = List.concat_map (fun u -> List.rev (scan_structure u u.u_ast [])) units

let rule =
  {
    rule_id;
    rule_doc =
      "toplevel mutable state in library code must be Atomic or carry an \
       explicit allow marker (domains share it unsynchronized)";
    run;
  }
