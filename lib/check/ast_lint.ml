(* Typed-AST static analysis framework (DESIGN.md §4h): the repo's one
   lint pass.

   The invariants it guards — hot-path functions stay allocation-free,
   library code holds no unmarked toplevel mutable state — need scopes
   and precise locations, which only the compiler's own parser provides.
   This module is the shared plumbing: it reads and parses each
   compilation unit with [Parse.implementation] (compiler-libs), records
   where every top-level structure item lives, scans the raw source for
   [lint: allow <rule-id>] exemption markers, and builds findings (file /
   line / rule id / name / construct / detail / allowed).  Rules themselves live under [rules/]
   and are registered in {!Registry}.

   A marker waives findings of its rule within the enclosing top-level
   structure item (or up to five lines below the marker, for markers that
   sit in a comment block above the binding).  Markers are scanned from
   the raw text because they live inside comments — the one job the typed
   AST cannot do. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;  (** rule id, e.g. ["zero-alloc"] *)
  name : string;  (** offending function / binding / handler arm *)
  construct : string;  (** what triggered it, e.g. ["field frozen <-"] *)
  detail : string;  (** one human sentence *)
  allowed : string option;
      (** [None]: a violation.  [Some reason]: permitted — ["marker"] (an
          explicit [lint: allow <rule-id>] comment) or a rule-specific
          reason such as ["Atomic"]. *)
}

type unit_ = {
  u_file : string;  (** path as given (what findings report) *)
  u_base : string;  (** [Filename.basename u_file] — rules key on this *)
  u_module : string;  (** capitalized module name derived from the base *)
  u_source : string;
  u_ast : Parsetree.structure;
  u_markers : (int * string) list;  (** line, rule-id *)
  u_spans : (int * int) list;  (** top-level structure item line spans *)
}

type rule = {
  rule_id : string;
  rule_doc : string;  (** one line: the invariant the rule protects *)
  run : unit_ list -> finding list;
      (** whole-program by design: a rule sees every scanned unit at once
          (the zero-alloc catalogue spans several files) *)
}

exception Parse_error of string

(* --- parsing --- *)

let parse_source ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  try Parse.implementation lexbuf
  with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
      | _ -> Printexc.to_string exn
    in
    raise (Parse_error (Printf.sprintf "%s: syntax error: %s" file msg))

(* --- exemption markers --- *)

let marker_prefix = "lint: allow "

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

let markers_of_source src =
  let out = ref [] in
  List.iteri
    (fun i line ->
      let ll = String.length line and lp = String.length marker_prefix in
      let rec scan j =
        if j + lp > ll then ()
        else if String.sub line j lp = marker_prefix then begin
          let s = j + lp in
          let e = ref s in
          while !e < ll && is_rule_char line.[!e] do incr e done;
          if !e > s then out := (i + 1, String.sub line s (!e - s)) :: !out;
          scan !e
        end
        else scan (j + 1)
      in
      scan 0)
    (String.split_on_char '\n' src);
  List.rev !out

let module_of_base base =
  let stem = Filename.remove_extension base in
  String.capitalize_ascii stem

let unit_of_source ~file src =
  let ast = parse_source ~file src in
  let spans =
    List.map
      (fun (item : Parsetree.structure_item) ->
        let loc = item.pstr_loc in
        (loc.loc_start.pos_lnum, loc.loc_end.pos_lnum))
      ast
  in
  let base = Filename.basename file in
  {
    u_file = file;
    u_base = base;
    u_module = module_of_base base;
    u_source = src;
    u_ast = ast;
    u_markers = markers_of_source src;
    u_spans = spans;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* All [.ml] files under a path, sorted; skips [_build] and dot-entries. *)
let rec files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun name -> name <> "_build" && not (String.length name > 0 && name.[0] = '.'))
    |> List.concat_map (fun name -> files_under (Filename.concat path name))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let load_files files = List.map (fun f -> unit_of_source ~file:f (read_file f)) files
let load_dirs dirs = load_files (List.concat_map files_under dirs)

(* --- findings --- *)

(* Is line [line] of [u] waived for [rule]?  The marker must sit within
   the enclosing top-level item, or in the five lines above it (comment
   blocks that introduce a binding). *)
let marker_allows u ~rule ~line =
  let lo, hi =
    match List.find_opt (fun (lo, hi) -> lo <= line && line <= hi) u.u_spans with
    | Some span -> span
    | None -> (line, line)
  in
  List.exists (fun (ml, r) -> r = rule && ml >= lo - 5 && ml <= hi) u.u_markers

let finding ?allowed u ~rule ~line ~name ~construct ~detail =
  let allowed =
    match allowed with
    | Some _ as a -> a
    | None -> if marker_allows u ~rule ~line then Some "marker" else None
  in
  { file = u.u_file; line; rule; name; construct; detail; allowed }

let compare_findings a b =
  match compare a.file b.file with
  | 0 -> ( match compare a.line b.line with 0 -> compare a.rule b.rule | c -> c)
  | c -> c

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s: %s%s" f.file f.line f.rule f.name f.detail
    (match f.allowed with
    | None -> ""
    | Some "marker" -> "  (ok: explicit allow marker)"
    | Some r -> "  (ok: " ^ r ^ ")")

(* --- Longident helpers --- *)

let flatten lid = try String.concat "." (Longident.flatten lid) with _ -> ""

(* --- shared expression predicates --- *)

(* Peel the parameter chain of a [let f a b ~c = ...] binding down to the
   body, through newtypes and constraints. *)
let rec peel_params (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> peel_params body
  | Pexp_newtype (_, body) -> peel_params body
  | Pexp_constraint (body, _) -> peel_params body
  | _ -> e

(* Syntactic arity of a binding: how many parameters the fun-chain binds
   (newtypes excluded — they take no argument at application sites). *)
let arity_of (e : Parsetree.expression) =
  let rec go n (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) -> go (n + 1) body
    | Pexp_newtype (_, body) -> go n body
    | Pexp_constraint (body, _) -> go n body
    | _ -> n
  in
  go 0 e

let rec is_function (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> is_function e
  | _ -> false

(* The name a simple value binding binds, through constraints. *)
let rec binding_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var n -> Some n.txt
  | Ppat_any -> Some "_"
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

(* --- in-memory mutation surgery (the must-catch gate) --- *)

(* Find [needle] in [hay] at or after [from]; [-1] if absent. *)
let index_from hay from needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then -1 else if String.sub hay i nn = needle then i else go (i + 1)
  in
  go (max 0 from)

(* Delete the first occurrence of [needle] at or after the first
   occurrence of [anchor], or put [by] in its place.  [Error] when either
   string is missing — the gate must fail loudly if a refactor moves the
   mutation site, rather than silently testing nothing. *)
let excise ?(by = "") ~anchor ~needle src =
  let a = index_from src 0 anchor in
  if a < 0 then Error (Printf.sprintf "anchor %S not found" anchor)
  else
    let i = index_from src a needle in
    if i < 0 then Error (Printf.sprintf "%S not found after anchor %S" needle anchor)
    else
      let j = i + String.length needle in
      Ok (String.sub src 0 i ^ by ^ String.sub src j (String.length src - j))

(* Swap a mutated copy of [base]'s source into the unit list. *)
let mutate_unit units ~base ~f =
  match List.find_opt (fun u -> u.u_base = base) units with
  | None -> Error (Printf.sprintf "no %s among the scanned units" base)
  | Some u -> (
    match f u.u_source with
    | Error _ as e -> e
    | Ok src ->
      let u' = unit_of_source ~file:u.u_file src in
      Ok (List.map (fun v -> if v == u then u' else v) units))
