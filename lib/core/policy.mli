(** Replication policies (§4.2, §8).

    On every miss with no local copy the Cpage system can either *replicate*
    (or migrate, on a write) the page to the faulting processor's memory, or
    create a *remote mapping* to an existing physical page — in effect
    selectively disabling caching for that page.  A policy makes that
    choice; PLATINUM's interim policy freezes pages that were invalidated by
    the protocol within the last [t1].

    A policy only decides.  Its verdict is data: {!decide} leaves the page
    untouched, and {!Fault.plan} turns a [Freeze] or [Thaw] into a step
    before the mapping, as the paper's policy leaves thawing to the
    defrost daemon.  {!Fault.plan} also turns a [Replicate] on a frozen
    page into a remote mapping, so a policy that never reads
    [Cpage.frozen] still leaves a frozen page with one copy. *)

type decision =
  | Replicate
      (** Make a local copy (read miss) / migrate the page (write miss). *)
  | Remote_map  (** Map an existing physical page across the switch. *)
  | Freeze  (** Freeze the page, then remote-map it. *)
  | Thaw  (** Thaw the page, then replicate or migrate it. *)

type fault_kind =
  | Read_fault
  | Write_fault

type kind =
  | Platinum of { thaw_on_fault : bool }
      (** The paper's policy.  Freeze on a fault within [t1] of the last
          protocol invalidation.  With [thaw_on_fault = false] (the paper's
          default) a frozen page stays frozen until the defrost daemon thaws
          it; with [true] a fault after the [t1] window thaws it (the
          alternative policy of §4.2). *)
  | Always_replicate  (** Never freeze: replicate/migrate on every miss. *)
  | Never_move
      (** Static placement: pages stay wherever first touch put them; every
          other processor uses remote mappings (the Uniform-System-like
          baseline). *)
  | Migrate_only
      (** Migrate on write misses, but never replicate for reads
          (Scheurich/DuBois-style migration without replication). *)
  | Bolosky of { max_migrations : int }
      (** Bolosky et al.'s simple NUMA-Mach scheme: replicate only
          never-written pages; let a written page migrate at most
          [max_migrations] times, then freeze it permanently. *)
  | Uniform_system
      (** The Figure 1 baseline: data pages are scattered round-robin
          across memory modules (the Uniform System's placement) and are
          never moved — every non-resident access is remote. *)
  | Competitive of { threshold : int }
      (** Black, Gupta and Weber's competitive management (§8): move a
          page only once enough remote use has accrued to pay for the
          move.  The real scheme counts references with hardware
          counters; lacking those (the paper's very objection), this is
          the software approximation: a page is remote-mapped until
          [threshold] misses have accumulated since it last moved, then
          replicated/migrated. *)

type t

val make : t1:Platinum_sim.Time_ns.t -> kind -> t
(** [t1] is the freeze window used by [Platinum] (and ignored by others). *)

val name : t -> string

val uses_defrost : t -> bool
(** Should the defrost daemon run? *)

val scatter_placement : t -> bool
(** Place first-touch pages round-robin by page id instead of on the
    faulting processor's module. *)

val decide : t -> now:Platinum_sim.Time_ns.t -> fault_kind -> Cpage.t -> decision
(** The verdict for a miss at [now] on a page that has at least one copy
    but none local to the faulting processor.  Reads the page and never
    modifies it; only [Competitive] keeps state of its own (its per-page
    miss counts). *)

val page_input : t -> Cpage.t -> int
(** The bounded part of a page's history that {!decide} reads beyond the
    page's protocol state (its frozen flag and last protocol
    invalidation): for [Bolosky], the migration count capped at
    [max_migrations] and whether the page was ever written; for
    [Competitive], the page's miss count since it last moved; [0] for
    every other kind.  Pages in the same protocol state with equal
    inputs get equal verdicts, so the model checker folds this into its
    state fingerprint. *)

val default_names : string list
val of_string : t1:Platinum_sim.Time_ns.t -> string -> (t, string) result
(** Parse a policy name for CLIs: ["platinum"], ["platinum-thaw"],
    ["always-replicate"], ["static-place"], ["uniform-system"],
    ["migrate-only"], ["bolosky"]. *)
