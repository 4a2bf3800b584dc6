(** Address-translation caches (the MC68851's ATC).

    One per processor; caches entries of that processor's Pmap for the
    *currently active* address space (§3.1).  The ATC stores no
    translation of its own: an entry is cached exactly when its
    [Pmap.entry.loaded] stamp equals the ATC's epoch.  A flush (on
    address-space switch) bumps the epoch, so every stamp goes stale at
    once; a shootdown that removes a Pmap entry removes the only copy of
    the translation, so a stale cached translation cannot exist, and a
    [restrict] applied to the Pmap entry is the ATC's restriction too.

    The ATC's space is the one record of which address space a processor
    has active: {!Coherent} activates through it and {!Shootdown} asks
    {!is_active} to choose between interrupting a holder and deferring
    its update. *)

type t

val create : unit -> t

val active_aspace : t -> int option

val is_active : t -> aspace:int -> bool
(** [active_aspace t = Some aspace], without allocating the option. *)

val activate : t -> aspace:int -> bool
(** Make [aspace] current.  Returns [true] (and flushes) when this changed
    the active space. *)

val holds : t -> Pmap.entry -> bool
(** Is this entry cached?  Meaningful only for an entry of this
    processor's Pmap: entries of other spaces were stamped in an earlier
    epoch, so they never hold. *)

val load : t -> Pmap.entry -> unit
(** Cache an entry of the active address space's Pmap. *)

val flush : t -> unit
(** Drop every cached translation. *)
