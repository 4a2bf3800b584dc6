(* zero-alloc: hot-path functions contain no allocating constructs.

   The PR 5/7 fast paths promise an allocation-free steady state — the
   runtime Gc gate measures it, but only on the schedules a test drives.
   This rule is the static complement: for a catalogue of hot-path
   functions it walks the function body and flags every construct the
   compiler lowers to a minor-heap allocation — closures ([fun] below the
   parameter chain), tuples, records, non-empty arrays and lists,
   constructor and polymorphic-variant applications ([Some v] boxes),
   [ref], [lazy], first-class modules, boxed float literals, and partial
   applications of same-file functions (closure capture by another name;
   cross-module arities are unknown to a parser, so only same-file
   applications are checked).

   The check is direct-body-only — callees are not followed; each layer's
   hot functions are catalogued in their own file, and the seams between
   them (e.g. [Pmap.find] returning a *stored* option cell rather than a
   fresh [Some]) are exactly the designs the callee's own entry enforces.
   Subtrees under [assert] and the raise family are exempt: a cold
   failure path may build its message.  A [lint: allow <rule-id>] marker
   naming this rule waives a function that allocates by design on a cold
   sub-path the analysis cannot separate; no catalogued function in lib/
   carries one.

   A catalogued name missing from its file is itself a finding: a rename
   or a deletion would otherwise switch that function's check off without
   a word. *)

open Ast_lint

let rule_id = "zero-alloc"

(* file basename -> hot functions that must not allocate *)
let catalogue =
  [
    ( "coherent.ml",
      [
        "fp_read"; "fp_write"; "fp_rmw";
        "translate"; "read_word_s"; "write_word_s"; "rmw_word_s"; "finish_read"; "finish_write";
        "finish_rmw"; "after_write_inline"; "vpage_of"; "offset_of"; "only_holder_maps";
        "block_xfer"; "chunk_cost"; "chunk_loop"; "submit_block"; "submit";
      ] );
    ("memtxn.ml", [ "cut"; "start"; "first"; "next" ]);
    ("platsys.ml", [ "ensure_bound"; "bind_loop"; "ensure_txn" ]);
    ("flat.ml", [ "find"; "find_spill"; "mem"; "remove" ]);
    ("atc.ml", [ "holds"; "load" ]);
    ("cmap.ml", [ "find" ]);
    ("pmap.ml", [ "find" ]);
    ("cpage.ml", [ "state"; "any_copy"; "best_slot" ]);
    ("frame.ml", [ "get"; "set"; "copy_words"; "read_words"; "write_words"; "blit_from" ]);
    ("phys_mem.ml", [ "vpage"; "offset" ]); ("memmodule.ml", [ "acquire"; "negative_service" ]);
    ("xbar.ml", [ "access"; "uncontended_word_ns"; "module_fault" ]); ("config.ml", [ "hop"; "cluster_of" ]);
    ( "eheap.ml",
      [
        "add"; "pop"; "min_time"; "min_seq"; "check_nonempty"; "seq_at"; "sift_up_loop";
        "sift_down_loop";
      ] );
    ( "fastpath.ml",
      [
        "arm"; "close"; "armed"; "value"; "finish"; "vpage_of"; "inject_ok"; "gate";
        "try_read"; "try_write"; "try_rmw";
      ] );
    ("hist.ml", [ "record"; "record_n"; "index_of"; "bits_above" ]);
    ( "shard.ml",
      [ "hosted_drain"; "hosted_run"; "wake_rekey"; "wake_head" ] );
  ]

let raising = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Syntactic arities of a unit's top-level bindings, for the
   partial-application check. *)
let arities (u : unit_) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match binding_name vb.pvb_pat with
            | Some name ->
              let a = arity_of vb.pvb_expr in
              if a > 0 then Hashtbl.replace tbl name a
            | None -> ())
          vbs
      | _ -> ())
    u.u_ast;
  tbl

let span (e : Parsetree.expression) = (e.pexp_loc.loc_start.pos_cnum, e.pexp_loc.loc_end.pos_cnum)

let inside (lo, hi) spans = List.exists (fun (l, h) -> l <= lo && hi <= h) spans

(* A trailing [function] is the binding's last parameter, not a closure
   allocated per call; its case bodies are what must stay clean. *)
let function_bodies (body : Parsetree.expression) =
  match body.pexp_desc with
  | Pexp_function cases ->
    List.concat_map
      (fun (c : Parsetree.case) ->
        c.pc_rhs :: (match c.pc_guard with Some g -> [ g ] | None -> []))
      cases
  | _ -> [ body ]

let check_function u arities ~name (body : Parsetree.expression) acc =
  let out = ref acc in
  let suppressed = ref [] in
  (* apply heads are re-visited as bare idents by the default iterator;
     remember them so [ref] is not flagged twice *)
  let heads = ref [] in
  let flag (e : Parsetree.expression) construct =
    if not (inside (span e) !suppressed) then
      out :=
        finding u ~rule:rule_id ~line:e.pexp_loc.loc_start.pos_lnum ~name ~construct
          ~detail:(Printf.sprintf "%s allocates (%s) on the hot path" name construct)
        :: !out
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_assert _ -> suppressed := span e :: !suppressed
          | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as head), args) -> (
            heads := fst (span head) :: !heads;
            let fname = flatten txt in
            if List.mem fname raising then suppressed := span e :: !suppressed
            else if fname = "ref" then flag e "ref"
            else
              match txt with
              | Lident n -> (
                match Hashtbl.find_opt arities n with
                | Some a when List.length args < a ->
                  flag e (Printf.sprintf "partial application of %s" n)
                | _ -> ())
              | _ -> ())
          | Pexp_ident { txt = Lident "ref"; _ } when not (List.mem (fst (span e)) !heads)
            ->
            flag e "ref"
          | Pexp_fun _ | Pexp_function _ -> flag e "closure"
          | Pexp_tuple _ -> flag e "tuple"
          | Pexp_record _ -> flag e "record"
          | Pexp_array (_ :: _) -> flag e "array literal"
          | Pexp_construct (_, Some _) -> flag e "constructor application"
          | Pexp_variant (_, Some _) -> flag e "polymorphic variant"
          | Pexp_lazy _ -> flag e "lazy"
          | Pexp_pack _ -> flag e "first-class module"
          | Pexp_constant (Pconst_float _) -> flag e "boxed float"
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (it.expr it) (function_bodies body);
  !out

let missing_construct = "catalogued but not defined"

(* One finding per catalogued name that [u] no longer binds at top level. *)
let stale (u : unit_) hot acc =
  let names =
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.filter_map (fun (vb : Parsetree.value_binding) -> binding_name vb.pvb_pat) vbs
        | _ -> [])
      u.u_ast
  in
  List.fold_left
    (fun acc name ->
      if List.mem name names then acc
      else
        finding u ~rule:rule_id ~line:1 ~name:(u.u_module ^ "." ^ name)
          ~construct:missing_construct
          ~detail:
            (Printf.sprintf
               "%s is in the zero-alloc catalogue but %s defines no such top-level \
                function; fix the catalogue"
               name u.u_base)
        :: acc)
    acc hot

let run units =
  List.fold_left
    (fun acc u ->
      match List.assoc_opt u.u_base catalogue with
      | None -> acc
      | Some hot ->
        let ar = arities u in
        List.fold_left
          (fun acc (item : Parsetree.structure_item) ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
              List.fold_left
                (fun acc (vb : Parsetree.value_binding) ->
                  match binding_name vb.pvb_pat with
                  | Some name when List.mem name hot ->
                    check_function u ar ~name:(u.u_module ^ "." ^ name)
                      (peel_params vb.pvb_expr) acc
                  | _ -> acc)
                acc vbs
            | _ -> acc)
          (stale u hot acc) u.u_ast)
    [] units

let rule =
  {
    rule_id;
    rule_doc =
      "catalogued hot-path functions contain no allocating constructs (static \
       complement of the runtime Gc gate)";
    run;
  }
