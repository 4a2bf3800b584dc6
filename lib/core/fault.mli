(** The coherent-memory fault protocol as a plan (§3.2–§3.3).

    Every transition of the paper's Figure 4 state diagram is a short list
    of {!step}s: directory changes plus the shootdowns that deliver them.
    {!plan} chooses that list from the request, the page's directory facts
    and the {!Policy} verdict; it is pure and touches no machine, memory or
    coherent state.  {!Coherent} is the one executor: it carries the steps
    out in order, charging each against the contended memory modules.

    Outcomes that depend on data do not re-plan: the plan already holds
    their tails.  An allocation that fails runs its [fallback] (a remote
    mapping), and a copy whose injected aborts exhaust its retries runs its
    [on_abort] tail, which abandons the move and freezes the page where it
    lives (§4.2's escape hatch for pages not worth moving).

    Every plan is built once, when the module is initialised: a fault
    allocates no plan. *)

exception Unmapped of { aspace : int; vpage : int }
(** No Cmap entry: the fault belongs to the VM layer. *)

exception Protection_violation of { aspace : int; vpage : int; write : bool }

exception Out_of_physical_memory

(** Where a fresh frame comes from. *)
type place =
  | First_touch
      (** the faulting processor's module, or round-robin by page id under
          a scattering policy; failure raises {!Out_of_physical_memory} *)
  | Near  (** the faulting processor's module, else the emptiest other one *)
  | Exactly
      (** the target module only, charged as a remote allocation whatever
          the page's home (advice) *)

(** The one copy a {!Free_copies} step keeps. *)
type keep =
  | Keep_local  (** the copy on the target module *)
  | Keep_fresh  (** the frame this plan allocated *)
  | Keep_chosen  (** the home module's copy if any, else the newest *)
  | Keep_newest  (** the most recently added copy *)

type mapping =
  | Local  (** the copy already on the faulting processor's module *)
  | Zeroed  (** the fresh frame, zero-filled *)
  | Copied  (** the fresh frame, copied: a replica on a read, the migrated page on a write *)
  | Remote
      (** the chosen copy across the switch; a frozen single copy is mapped
          with the full rights the VM system permits, so it faults no
          further *)

type step =
  | Shootdown of { directive : Cmap.directive; spare : bool; protocol : bool }
      (** {!Shootdown.run} over every mapping of the page.  [spare] keeps
          the faulting translation.  A [protocol] invalidation stamps the
          page, counts, kills every cached line of it (§7) and emits
          [Invalidated]; a protocol restriction drops the write flag and
          emits [Restricted].  Advice's shootdown is not a protocol one. *)
  | Alloc of { place : place; fallback : step list }
      (** Allocate the fresh frame; on failure run [fallback] instead of
          the rest of the plan.  An empty [fallback] raises
          {!Out_of_physical_memory}. *)
  | Zero_fill of { counted : bool }
      (** Zero the fresh frame and add it to the directory.  A [counted]
          (fault) zero-fill also kills the page's cached lines and counts. *)
  | Copy of { abortable : bool; on_abort : step list }
      (** Block-copy the page into the fresh frame and add it to the
          directory.  An [abortable] (fault) copy is charged to the fault
          handler's copy time and consults [Inject.block_abort]; when its
          retries run out, the fresh frame is freed and [on_abort] runs
          instead of the rest of the plan. *)
  | Free_copies of keep  (** Free every other copy. *)
  | Settle  (** Drop the write flag. *)
  | Note_remote
      (** Charge, count and emit a remote mapping.  It precedes the
          shootdown a write into a shared page needs, whose cost starts
          after it. *)
  | Freeze of { degraded : bool }
      (** Freeze the page: at the fault's start for a [Freeze] verdict, or
          after the work so far as a [degraded] freeze-in-place. *)
  | Thaw
  | Map of mapping  (** Install the translation; always the last step. *)

val plan :
  write:bool ->
  state:Cpage.state ->
  copies:int ->
  local:bool ->
  frozen:bool ->
  Policy.decision ->
  step list
(** The plan for a fault that may proceed ([write] or read, rights already
    checked) on a page in [state] with [copies] copies, one of them [local]
    to the faulting processor or not, [frozen] or not.  The verdict is read
    only when the page has copies but none local; the executor then asks
    {!Policy.decide} for it, and passes any constructor otherwise.  On a
    frozen page a [Replicate] verdict plans a remote mapping, whatever
    the policy: only a [Thaw] moves a frozen page. *)

val collapse : local:bool -> copies:int -> step list
(** The plan that collapses a page to one copy on a target module, [local]
    when it already has one there (§9 placement advice).  It maps nothing:
    every translation is shot down. *)
