(** Per-processor physical maps.

    In contrast with Mach's single shared Pmap per address space, PLATINUM
    gives *each processor* a private Pmap per address space (§3.1): a cache
    of the valid virtual-to-physical translations that processor is using —
    a working set, not the whole space.  Private Pmaps avoid the
    Mach shootdown races and let the initiator skip processors that never
    referenced a page. *)

type entry = {
  frame : Platinum_phys.Frame.t;
  cpage : Cpage.t;  (* the page the Cmap binds at this vpage *)
  mutable write_ok : bool;
}

type t

val create : proc:int -> t
val proc : t -> int

val find : t -> vpage:int -> entry option
(** The stored entry cell of the chunked vpage-indexed table ({!Flat}):
    a hit allocates nothing. *)

val install :
  t -> vpage:int -> frame:Platinum_phys.Frame.t -> cpage:Cpage.t -> write_ok:bool -> entry
(** Add or replace the translation for [vpage]; [cpage] is the page bound
    there, so a hit reads it from the entry without a second lookup. *)

val remove : t -> vpage:int -> unit
val restrict : t -> vpage:int -> unit
(** Drop write permission, keeping the translation (the [Restrict_to_read]
    shootdown directive). *)

val clear : t -> unit
val size : t -> int
val iter : (int -> entry -> unit) -> t -> unit
val mem : t -> vpage:int -> bool
(** Is a translation installed? *)

val write_ok : t -> vpage:int -> bool
(** Does the installed translation permit writes?  [false] when absent. *)
