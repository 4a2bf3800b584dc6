(** The coherence sanitizer's invariant catalogue and runtime monitor.

    This is the single source of truth for the safety invariants of the
    PLATINUM directory protocol.  It sits {e below} {!Cpage} on purpose:
    page-level invariants are expressed over an immutable {!page_view}
    snapshot, so [Cpage.check_invariants] (and the model checker, and the
    machine-wide sweep in {!Coherent}) all delegate to the one catalogue
    here instead of re-implementing it.

    Three consumers:
    - {!Cpage.check_invariants} / {!Coherent.check_invariants} — on-demand
      full checks (the tier-1 tests call these).
    - the runtime monitor — a {!monitor} installed on a {!Coherent}
      instance (automatically when [PLATINUM_CHECK=1]) re-verifies every
      invariant after each protocol transition and raises {!Violation}
      carrying the page, the failed invariant, and a bounded replayable
      prefix of recent requests and protocol events.
    - [Platinum_check.Mc] — the bounded model checker, which asserts the
      same invariants in every reachable state of small configurations.

    Monitor state is per-{!Coherent}-instance (no global mutable state), so
    domain-parallel sweeps can run checked simulations concurrently. *)

(* --- page views --- *)

(** A read-only snapshot of the protocol-relevant fields of a coherent
    page.  Built by [Cpage.to_view], which lists the copies: for checks,
    not the access path. *)
type page_view = {
  pv_id : int;
  pv_copies : Platinum_phys.Frame.t list;
  pv_copy_mask : Platinum_machine.Procset.t;
  pv_write_mapped : bool;
  pv_frozen : bool;
}

(* --- structured violations --- *)

type fault = {
  inv : string;  (** invariant name, e.g. ["single-writer"] *)
  cite : string;  (** paper section the invariant comes from *)
  detail : string;
  cpage : int option;
}

val fault : inv:string -> cite:string -> ('a, unit, string, fault) format4 -> 'a
(** Printf-style constructor of a machine-wide [fault] ([cpage = None]). *)

val render : fault -> string
(** ["cpage 3: single-writer (§3.2): write mapping coexists with 2 copies"] *)

(* --- the page-level invariant catalogue --- *)

type page_invariant = {
  pi_name : string;
  pi_cite : string;  (** paper section *)
  pi_doc : string;  (** one-line statement of the invariant *)
  pi_check : page_view -> string option;  (** [Some detail] when violated *)
}

val page_invariants : page_invariant list
(** The catalogue, checked in order: mask-list-agreement (§2.3),
    one-copy-per-module (§2.3), single-writer (§3.2), frozen-single-copy
    (§4.2), replica-coherence (§2.3/§3.2).  The page state needs no entry:
    {!Cpage.state} derives it from the directory. *)

val check_page : page_view -> (unit, fault) result
(** Run the catalogue; first violated invariant wins. *)

(* --- the runtime monitor --- *)

(** What the monitor records: the requests entering the fault path and the
    protocol events they caused — together, a replayable prefix for
    diagnosing a violation. *)
type trace_entry =
  | Request of { proc : int; aspace : int; vpage : int; write : bool }
  | Event of Probe.event

type monitor
(** Per-{!Coherent}-instance monitor state: a bounded ring of recent trace
    entries.  Deliberately not global — see the domain-safety lint. *)

type violation = {
  v_fault : fault;
  v_at : Platinum_sim.Time_ns.t;
  v_trace : (Platinum_sim.Time_ns.t * trace_entry) list;  (** oldest first *)
}

exception Violation of violation

val create_monitor : unit -> monitor
(** The retained trace prefix is bounded at 128 entries. *)

val note : monitor -> now:Platinum_sim.Time_ns.t -> trace_entry -> unit
val trace : monitor -> (Platinum_sim.Time_ns.t * trace_entry) list

val raise_violation : monitor -> now:Platinum_sim.Time_ns.t -> fault -> 'a
(** Raise {!Violation} carrying the monitor's current trace. *)

val violation_message : violation -> string

val env_enabled : unit -> bool
(** [PLATINUM_CHECK] set to anything but [""]/["0"]
    ({!Platinum_sim.Engine.checks_armed_by}): {!Coherent.create} installs
    a monitor automatically. *)
