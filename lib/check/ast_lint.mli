(** Typed-AST static analysis framework (DESIGN.md §4h): the repo's one
    lint pass.

    Parses library sources with the compiler's own parser
    ([Parse.implementation]) and runs pluggable rules over the
    [Parsetree], with precise locations and a [lint: allow <rule-id>]
    exemption-marker mechanism.  Rules live under [rules/] and are
    registered in {!Registry}; run the whole battery with
    [dune exec bin/lint.exe]. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;  (** rule id, e.g. ["zero-alloc"] *)
  name : string;  (** offending function / binding / handler arm *)
  construct : string;  (** what triggered it, e.g. ["field frozen <-"] *)
  detail : string;  (** one human sentence *)
  allowed : string option;
      (** [None]: a violation.  [Some reason]: permitted — ["marker"] or a
          rule-specific reason such as ["Atomic"]. *)
}

(** One parsed compilation unit plus everything rules need: raw source,
    exemption markers, top-level item spans. *)
type unit_ = {
  u_file : string;
  u_base : string;  (** basename — rules key their catalogues on this *)
  u_module : string;  (** capitalized module name derived from the base *)
  u_source : string;
  u_ast : Parsetree.structure;
  u_markers : (int * string) list;  (** line, rule-id *)
  u_spans : (int * int) list;  (** top-level structure item line spans *)
}

type rule = {
  rule_id : string;
  rule_doc : string;
  run : unit_ list -> finding list;
}

exception Parse_error of string

val unit_of_source : file:string -> string -> unit_
(** Raises {!Parse_error} with a located message on a syntax error. *)

val load_dirs : string list -> unit_ list
(** Every [.ml] file under the given paths, recursively and in sorted
    order; [_build] and dot-entries are skipped. *)

val marker_allows : unit_ -> rule:string -> line:int -> bool
(** Is [line] waived for [rule]?  A marker covers its enclosing top-level
    structure item, reaching five lines above it for comment blocks that
    introduce a binding. *)

val finding :
  ?allowed:string ->
  unit_ ->
  rule:string ->
  line:int ->
  name:string ->
  construct:string ->
  detail:string ->
  finding
(** Build a finding; unless [?allowed] forces a reason, the marker scan
    decides [allowed]. *)

val compare_findings : finding -> finding -> int
val pp_finding : Format.formatter -> finding -> unit

(** {2 Longident and expression helpers for rules} *)

val flatten : Longident.t -> string
(** Dotted name, e.g. ["Domain.DLS.new_key"]; [""] for functor paths. *)

val peel_params : Parsetree.expression -> Parsetree.expression
val arity_of : Parsetree.expression -> int
val is_function : Parsetree.expression -> bool
val binding_name : Parsetree.pattern -> string option

(** {2 In-memory mutation surgery (the must-catch gate)} *)

val excise :
  ?by:string -> anchor:string -> needle:string -> string -> (string, string) result
(** Delete the first [needle] after the first [anchor], or put [by] in
    its place; [Error] when either is missing, so a refactor that moves
    the seeded mutation site breaks the gate loudly instead of silently
    testing nothing. *)

val mutate_unit :
  unit_ list ->
  base:string ->
  f:(string -> (string, string) result) ->
  (unit_ list, string) result
(** Re-parse a transformed copy of the unit named [base] and splice it
    into the list in place of the original. *)
