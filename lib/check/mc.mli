(** Bounded model checker for the coherence protocol.

    Exhaustively enumerates the protocol state space of a small
    configuration (2–3 processors, 1–2 pages) by breadth-first search over
    operation interleavings up to a depth bound, driving the {e real}
    {!Platinum_core.Coherent} system with the invariant monitor armed.
    It reports the states reached and the transitions taken (Figure 4).

    In every reachable state, all of the {!Platinum_core.Check} invariants
    hold (the monitor re-verifies them after each transition) and reads
    are sequentially consistent: each read must return the value of the
    last preceding write to that page in the operation sequence.

    The system runs one replication policy, named as in
    {!Platinum_core.Policy.default_names}.  States are deduplicated by a
    canonical fingerprint of every behavior-affecting component: page
    state, frozen flag, write flag, the freeze-window bucket of
    [last_protocol_inval], the policy's own per-page input
    ({!Platinum_core.Policy.page_input}), directory copies
    (module + data), copy/reference masks, per-processor Pmap and ATC
    translations, active address spaces, and the read oracle.  Replay is
    deterministic, so a counterexample's operation prefix reproduces the
    violation exactly. *)

type op =
  | Read of { proc : int; page : int }
  | Write of { proc : int; page : int }
      (** writes the distinguishing value [proc + 1] to word 0 *)
  | Freeze of { page : int }  (** [Coherent.Freeze]: collapse + freeze *)
  | Thaw of { page : int }  (** [Coherent.Thaw] *)
  | Daemon_thaw  (** what the defrost daemon does: thaw every frozen page *)

val ops_to_string : op list -> string

val catalogue : nprocs:int -> npages:int -> op list
(** The transition alphabet of a configuration. *)

val replay : policy:string -> nprocs:int -> npages:int -> op list -> (string, string) result
(** Run one operation sequence from scratch on a fresh monitored system
    under [policy] (a fresh policy each time; [Invalid_argument] for a
    name not in {!Platinum_core.Policy.default_names}).
    [Ok fingerprint] on success; [Error message] carries the first
    invariant violation or sequential-consistency failure.  Also the
    entry point for randomized (QCheck) exploration. *)

(** A page's (state, frozen) pair before and after a letter, and the letter and
    the {!Platinum_core.Probe} events it emitted: ["read: read-fault, replicate"]. *)
type edge = {
  from : Platinum_core.Cpage.state * bool;
  to_ : Platinum_core.Cpage.state * bool;
  trigger : string;
}

val pp_edge : Format.formatter -> edge -> unit
val to_dot : edge list -> string

type counterexample = {
  cx_ops : op list;  (** the replayable operation prefix, oldest first *)
  cx_message : string;
}

type report = {
  policy : string;
  nprocs : int;
  npages : int;
  depth : int;
  states : int;  (** distinct reachable states (including the initial one) *)
  transitions : int;  (** transitions attempted (replays) *)
  states_at_depth : int array;  (** new states first reached at depth d *)
  violations : counterexample list;  (** capped at five *)
  total_violations : int;
  truncated : bool;  (** hit the 200,000-state cap before exhausting the space *)
  edges : edge list;  (** what the replays' last letters took, sorted; a hit takes none *)
}

val explore :
  ?mutate:bool -> policy:string -> nprocs:int -> npages:int -> depth:int -> unit -> report
(** Breadth-first exploration to [depth] under [policy], stopping at
    200,000 distinct states.  With [mutate], every replay
    runs with {!Platinum_core.Shootdown.test_skip_refmask_clear} set — the
    deliberately broken write-invalidate transition — and the exploration
    is expected to report violations (the mutation check: a silent checker
    is a broken checker). *)

val pp_report : Format.formatter -> report -> unit
