(** Address-translation caches (the MC68851's ATC).

    One per processor; caches Pmap entries of the *currently active*
    address space.  Flushed on address-space switch, and entries are
    invalidated or restricted by the shootdown mechanism (§3.1).  The ATC
    shares [Pmap.entry] records with the Pmap, so a restriction applied to
    the Pmap entry is visible through the ATC too — what matters for the
    protocol is that stale *presence* is impossible, which invalidation
    handles.

    The ATC's space is the one record of which address space a processor
    has active: {!Coherent} activates through it and {!Shootdown} asks
    {!is_active} to choose between interrupting a holder and deferring
    its update. *)

type t

val create : proc:int -> t
val proc : t -> int

val active_aspace : t -> int option

val is_active : t -> aspace:int -> bool
(** [active_aspace t = Some aspace], without allocating the option. *)

val activate : t -> aspace:int -> bool
(** Make [aspace] current.  Returns [true] (and flushes) when this changed
    the active space. *)

val find : t -> aspace:int -> vpage:int -> Pmap.entry option
(** Hit only if [aspace] is the active one and the translation is cached.
    Returns the stored option cell: a hit allocates nothing. *)

val load : t -> vpage:int -> Pmap.entry -> unit
(** Cache a translation for the active address space. *)

val invalidate : t -> aspace:int -> vpage:int -> unit
(** Drop the cached translation if this ATC currently caches that space. *)

val flush : t -> unit
val size : t -> int

val iter : (int -> Pmap.entry -> unit) -> t -> unit
(** Iterate over cached (vpage, entry) translations of the active space. *)
