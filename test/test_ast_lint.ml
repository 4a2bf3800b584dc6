(* The typed-AST analysis framework (PR 8): per-rule fixtures, the
   marker mechanism, the seeded-mutation must-catch gate, and the
   lib-clean acceptance gate. *)

module Ast_lint = Platinum_check.Ast_lint
module Registry = Platinum_check.Registry
module Rule_alloc = Platinum_check.Rule_alloc
module Rule_domain = Platinum_check.Rule_domain

let unit_ ~file src = Ast_lint.unit_of_source ~file src
(* lib/'s sources as dune copies them beside this test's build directory
   (the test's dune deps), found from the executable, not the working
   directory, so the suite runs the same from anywhere. *)
let lib_dir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "lib"
let lib_units = lazy (Ast_lint.load_dirs [ lib_dir ])

(* findings rendered as "name:construct" / "name:allowed" strings *)
let tags fs =
  List.map (fun (f : Ast_lint.finding) -> f.name ^ ":" ^ f.construct) (List.sort Ast_lint.compare_findings fs)

let verdicts fs =
  List.map
    (fun (f : Ast_lint.finding) -> f.name ^ ":" ^ Option.value ~default:"VIOLATION" f.allowed)
    (List.sort Ast_lint.compare_findings fs)

(* --- framework --- *)

let test_parse_error () =
  match unit_ ~file:"broken.ml" "let x = (\n" with
  | exception Ast_lint.Parse_error msg ->
    Alcotest.(check bool) "message names the file" true
      (String.length msg >= 9 && String.sub msg 0 9 = "broken.ml")
  | _ -> Alcotest.fail "expected Parse_error"

let test_marker_scope () =
  let u =
    unit_ ~file:"m.ml"
      "(* lint: allow some-rule -- close enough *)\n\
       let near = 1\n\
       \n\n\n\n\n\n\n\n\
       let far = 2\n"
  in
  Alcotest.(check bool) "marker covers the adjacent binding" true
    (Ast_lint.marker_allows u ~rule:"some-rule" ~line:2);
  Alcotest.(check bool) "other rules unaffected" false
    (Ast_lint.marker_allows u ~rule:"other-rule" ~line:2);
  Alcotest.(check bool) "marker does not reach a distant binding" false
    (Ast_lint.marker_allows u ~rule:"some-rule" ~line:11)

let test_surgery () =
  let src = "aaa needle bbb needle ccc" in
  (match Ast_lint.excise ~anchor:"bbb" ~needle:"needle" src with
  | Ok s -> Alcotest.(check string) "second occurrence excised" "aaa needle bbb  ccc" s
  | Error e -> Alcotest.fail e);
  (match Ast_lint.excise ~anchor:"zzz" ~needle:"needle" src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing anchor must be loud");
  match Ast_lint.excise ~anchor:"ccc" ~needle:"needle" src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "needle after anchor only"

(* --- zero-alloc --- *)

(* The fixtures below define only the catalogued names they exercise, so
   the stale-catalogue findings for the rest are filtered out here and
   tested on their own. *)
let alloc ?(file = "flat.ml") src =
  Rule_alloc.rule.Ast_lint.run [ unit_ ~file src ]
  |> List.filter (fun (f : Ast_lint.finding) -> f.construct <> Rule_alloc.missing_construct)

let test_alloc_clean () =
  let fs =
    alloc
      "let find t k =\n\
      \  if k >= 0 && k < Array.length t.cells then Array.unsafe_get t.cells k\n\
      \  else (try Hashtbl.find t.spill k with Not_found -> None)\n"
  in
  Alcotest.(check (list string)) "stored-cell hit path is clean" [] (tags fs)

let test_alloc_flags_constructs () =
  let fs =
    alloc
      (String.concat "\n"
         [
           "let find t k = Some k";
           "let mem t k =";
           "  let f = fun x -> x + k in";
           "  f (k, k)";
           "";
         ])
  in
  Alcotest.(check (list string)) "boxing and closures flagged"
    [ "Flat.find:constructor application"; "Flat.mem:closure"; "Flat.mem:tuple" ]
    (tags fs)

let test_alloc_ref_and_partial () =
  let fs =
    alloc
      (String.concat "\n"
         [
           "let helper a b = a + b";
           "let find t k =";
           "  let i = ref k in";
           "  helper !i";
           "";
         ])
  in
  Alcotest.(check (list string)) "ref cell and partial application"
    [ "Flat.find:ref"; "Flat.find:partial application of helper" ]
    (tags fs)

let test_alloc_raise_paths_exempt () =
  let fs =
    alloc
      "let find t k =\n\
      \  if k < 0 then invalid_arg (msg (k, t));\n\
      \  assert (check (k, t));\n\
      \  t\n"
  in
  Alcotest.(check (list string)) "failure paths may build messages" [] (tags fs)

let test_alloc_uncatalogued_ignored () =
  let fs = alloc "let create () = { cells = [||]; spill = Hashtbl.create 8 }\n" in
  Alcotest.(check (list string)) "constructors are not hot" [] (tags fs)

let test_alloc_marker () =
  let fs =
    alloc
      "(* lint: allow zero-alloc -- cold refresh *)\n\
       let find t k = Some k\n"
  in
  Alcotest.(check (list string)) "marker downgrades to allowed"
    [ "Flat.find:marker" ] (verdicts fs)

let test_alloc_trailing_function_is_a_parameter () =
  let fs =
    alloc ~file:"coherent.ml"
      "let rec only_holder_maps holder = function\n\
      \  | [] -> true\n\
      \  | x :: rest -> x = holder && only_holder_maps holder rest\n"
  in
  Alcotest.(check (list string)) "the function keyword is not a closure" [] (tags fs)

let test_alloc_stale_catalogue_name () =
  (* excise the binding name of a catalogued function from the real
     shard.ml: the rule must say the name has gone, not skip its check *)
  let units = Lazy.force lib_units in
  match
    Ast_lint.mutate_unit units ~base:"shard.ml"
      ~f:(Ast_lint.excise ~anchor:"(* The earliest live key" ~needle:"wake_head")
  with
  | Error e -> Alcotest.fail ("mutation failed: " ^ e)
  | Ok mutated ->
    let stale =
      List.filter
        (fun (f : Ast_lint.finding) ->
          f.construct = Rule_alloc.missing_construct && f.allowed = None)
        (Rule_alloc.rule.Ast_lint.run mutated)
    in
    Alcotest.(check (list string)) "the excised name is reported"
      [ "Shard.wake_head:" ^ Rule_alloc.missing_construct ]
      (tags stale)

(* --- toplevel-state on the typed AST --- *)

let domain ?(file = "m.ml") src = Rule_domain.rule.Ast_lint.run [ unit_ ~file src ]

let test_domain_flags_and_allows () =
  (* The allow marker comes last: it reaches five lines below itself. *)
  let fs =
    domain
      (String.concat "\n"
         [
           "let counter = ref 0";
           "let table = Hashtbl.create 16";
           "let buf = Buffer.create 80";
           "let scratch = Array.make 4 0";
           "let next = Atomic.make 0";
           "let make () = ref 0";
           "let find tbl k = Hashtbl.create k";
           "let f = fun x -> ref x";
           "let g = function None -> ref 0 | Some r -> r";
           "let answer = 42";
           "let pair = (1, 2)";
           (* a ref built while evaluating the binding is retained state *)
           "let indented_is_local =";
           "  let r = ref 0 in";
           "  !r";
           "let key = Domain.DLS.new_key (fun () -> make_ctx ())";
           "let samples = Float.Array.create 64";
           "let lut = Hashtbl.of_list [ (1, \"a\") ]";
           "let joined = Array.append [| 1 |] [| 2 |]";
           "(* let bad = ref 0 *)";
           "let s = \"Hashtbl.create 16\"";
           "let doc = \"a ref in a string\"";
           "(* nested (* ref *) comment *)";
           "let ok = 1";
           "(* lint: allow toplevel-state -- test knob *)";
           "let knob = ref false";
           "";
         ])
  in
  Alcotest.(check (list string)) "constructs"
    [
      "counter:ref";
      "table:Hashtbl.create";
      "buf:Buffer.create";
      "scratch:Array.make";
      "next:Atomic.make";
      "indented_is_local:ref";
      "key:Domain.DLS.new_key";
      "samples:Float.Array.create";
      "lut:Hashtbl.of_list";
      "joined:Array.append";
      "knob:ref";
    ]
    (tags fs);
  Alcotest.(check (list string)) "verdicts"
    [
      "counter:VIOLATION";
      "table:VIOLATION";
      "buf:VIOLATION";
      "scratch:VIOLATION";
      "next:Atomic";
      "indented_is_local:VIOLATION";
      "key:VIOLATION";
      "samples:VIOLATION";
      "lut:VIOLATION";
      "joined:VIOLATION";
      "knob:marker";
    ]
    (verdicts fs)

let test_domain_sees_nested_modules () =
  let fs = domain "module Inner = struct\n  let hidden = ref 0\nend\n" in
  Alcotest.(check (list string)) "nested toplevel state" [ "hidden:ref" ] (tags fs)

let test_domain_functor_bodies_skipped () =
  let fs = domain "module Make (X : S) = struct\n  let per_instance = ref 0\nend\n" in
  Alcotest.(check (list string)) "per-application state is fine" [] (tags fs)

(* --- whole-tree gates --- *)

let test_lib_clean () =
  let units = Lazy.force lib_units in
  Alcotest.(check bool) "found the library sources" true (List.length units > 30);
  let bad = Registry.violations (Registry.run_rules units) in
  List.iter (fun f -> Format.eprintf "%a@." Ast_lint.pp_finding f) bad;
  Alcotest.(check int) "no unexempted findings in lib/" 0 (List.length bad)

let test_lib_domain_findings_pinned () =
  (* Every toplevel mutable binding in lib/, by name and verdict: a new
     one, or a marker or Atomic that goes away, must show up here. *)
  let fs = Rule_domain.rule.Ast_lint.run (Lazy.force lib_units) in
  Alcotest.(check (list string)) "allowed lib/ findings"
    [
      "test_skip_refmask_clear:marker";
      "key:marker";
      "jobs_setting:Atomic";
    ]
    (verdicts fs)

let test_mutation_gate () =
  let gates = Registry.mutation_gate (Lazy.force lib_units) in
  Alcotest.(check int) "two seeded mutations" 2 (List.length gates);
  List.iter
    (fun (g : Registry.gate) ->
      match g.g_result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" g.g_name e)
    gates

let suite =
  [
    ("framework: parse errors are located", `Quick, test_parse_error);
    ("framework: marker scope", `Quick, test_marker_scope);
    ("framework: mutation surgery is anchored and loud", `Quick, test_surgery);
    ("alloc: stored-cell hit path clean", `Quick, test_alloc_clean);
    ("alloc: boxing constructs flagged", `Quick, test_alloc_flags_constructs);
    ("alloc: ref and partial application", `Quick, test_alloc_ref_and_partial);
    ("alloc: failure paths exempt", `Quick, test_alloc_raise_paths_exempt);
    ("alloc: uncatalogued functions ignored", `Quick, test_alloc_uncatalogued_ignored);
    ("alloc: marker downgrades", `Quick, test_alloc_marker);
    ("alloc: trailing function is a parameter", `Quick, test_alloc_trailing_function_is_a_parameter);
    ("alloc: stale catalogue name reported", `Quick, test_alloc_stale_catalogue_name);
    ("domain: flags, Atomic, marker", `Quick, test_domain_flags_and_allows);
    ("domain: nested modules visible", `Quick, test_domain_sees_nested_modules);
    ("domain: functor bodies skipped", `Quick, test_domain_functor_bodies_skipped);
    ("gate: lib/ has no unexempted findings", `Quick, test_lib_clean);
    ("gate: lib/ domain findings pinned", `Quick, test_lib_domain_findings_pinned);
    ("gate: seeded mutations are caught", `Quick, test_mutation_gate);
  ]
