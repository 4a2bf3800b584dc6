(** The hosted kernel's home protocol: home-partitioned distributed
    coherent memory under {!Parkernel} (DESIGN.md §4j).

    Every page has one home node holding the authoritative data, holder
    set and version; remote reads replicate page copies, writes and rmws
    execute at the home behind invalidation IPIs with ack-timeout retry,
    and a version floor discards a copy that a shootdown overtook.
    Requests can be dropped by the per-node fault planes and are
    retransmitted.  Every protocol step crosses nodes as an
    {!Platinum_sim.Engine.post}, so no node touches another node's state.

    The host sees only this interface: a per-node memory system, the
    setup-time image, read-back and the at-rest check for oracles, and
    the counters and home pages for the fingerprint. *)

type t

val create :
  Platinum_machine.Config.t ->
  Platinum_machine.Memmodule.t array ->
  engines:Platinum_sim.Engine.t array ->
  injects:Platinum_sim.Inject.t option array ->
  home_of:(int -> int) ->
  t
(** One node per engine, with that node's fault plane; [home_of] maps a
    virtual page to its home node. *)

val memsys : t -> int -> arena_base:int -> arena_words:int -> Platinum_kernel.Memsys.t
(** Node [i]'s memory system: every valid single-page transaction goes
    through the protocol; allocation bumps through the word range
    [\[arena_base, arena_base + arena_words)]. *)

val load : t -> addr:int -> int array -> unit
(** Write words into their home page at setup time, at no simulated cost.
    The words must lie within one page. *)

val home_words : t -> int -> int array
(** Page [p]'s authoritative words at its home (zeros if never touched).
    Creates no home record, so it does not change the fingerprint. *)

val at_rest_ok : t -> bool
(** After a run: every resident replica is in its home's holder set and
    equal to the home's words, and no home page is mid-shootdown or has
    queued requests. *)

type counters = private {
  mutable reads : int;  (** completed read transactions *)
  mutable writes : int;  (** completed write/rmw transactions *)
  mutable local_hits : int;  (** served from a replica or the own home *)
  mutable remote_ops : int;  (** requests sent to another node *)
  mutable replications : int;  (** page copies installed here *)
  mutable discards : int;  (** in-flight copies discarded as stale *)
  mutable invalidations : int;  (** replicas shot down here *)
  mutable shootdowns : int;  (** invalidation rounds initiated at this home *)
  mutable ipis : int;  (** IPI send attempts from this home *)
  mutable retrans : int;  (** dropped requests retransmitted *)
  mutable words : int;  (** data words moved for this node's traffic *)
  mutable snapshots : int;  (** grant copies taken here, one per version (not fingerprinted) *)
}

val counters : t -> int -> counters

val fold_homes : t -> int -> (int -> int -> int array -> 'a -> 'a) -> 'a -> 'a
(** [fold_homes t i f] folds [f page version words] over the pages homed
    at node [i], in ascending page order. *)

val touched_pages : t -> int
(** Home pages with a frame allocated, over all nodes. *)
