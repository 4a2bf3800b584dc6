(** Coherent maps (Cmap): per-address-space coherency bookkeeping.

    A Cmap caches the composition of the VM system's virtual→object and
    object→coherent-page mappings.  It holds (§2.3):

    - a table of virtual-to-coherent page mappings (Cmap entries), each
      with the access rights and a {e reference mask} of the processors
      holding a virtual-to-physical translation in their Pmap;
    - a queue of Cmap messages describing recent restrictive changes;
    - a bit mask of processors with this address space active;
    - a private {!Pmap} per processor.

    The message queue is modelled by its cost, not stored: {!Shootdown}
    applies every change eagerly and charges what posting and draining
    would — [shootdown_post_ns] and one [Counters.messages] per message,
    an interrupt for each active holder and a deferred update for each
    inactive one.  The active mask is not stored either: whether a
    processor has this space active is its {!Atc}'s record
    ({!Atc.is_active}). *)

type centry = {
  cpage : Cpage.t;
  mutable vrights : Rights.t;  (** rights granted by the VM system *)
  mutable refmask : Platinum_machine.Procset.t;
      (** processors with a v→p translation for this page *)
}

type directive =
  | Restrict_to_read
  | Invalidate

type t

val create : aspace:int -> nprocs:int -> t

val aspace : t -> int
val pmap : t -> proc:int -> Pmap.t

val find : t -> vpage:int -> centry option
val bind : t -> vpage:int -> Cpage.t -> Rights.t -> centry
(** Install a virtual-to-coherent mapping.  Raises if already bound. *)

val unbind : t -> vpage:int -> unit

(* --- sanitizer hook --- *)

val check_faults : t -> Check.fault option
(** Aspace-level invariants, first violation wins: every refmask bit has a
    live Pmap entry and vice versa (refmask-pmap-agreement, §3.1), every
    entry carries the page bound at its vpage (entry-page-agreement) and
    points into that page's directory (translation-in-directory),
    a write translation implies the page is write-mapped with a single copy
    (write-flag-agreement / replicas-read-only, §3.2), no Pmap entry
    survives for an unbound vpage (stale-translation). *)
