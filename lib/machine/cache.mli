(** A direct-mapped, write-through processor cache (timing/tag model).

    Used two ways: as the Sequent Symmetry's per-CPU cache in the Figure 5
    comparison machine (§5.2), and as the §7 "local data caches without
    internode coherency support" extension of the NUMA machine, where the
    coherent memory system maintains coherency in software.  Data lives in
    the backing store; the cache tracks line validity only. *)

type t

val create : words:int -> line_words:int -> t
(** [words] and [line_words] must be powers of two. *)

val lookup : t -> addr:int -> bool
(** Is the word's line resident? *)

val fill : t -> addr:int -> unit
(** Load the word's line (evicting the direct-mapped victim). *)

val invalidate_line : t -> addr:int -> unit
(** Snoop invalidation: drop the line holding [addr] if resident. *)

val invalidate_range : t -> addr:int -> words:int -> unit
(** Drop every line intersecting [addr, addr+words). *)

val flush : t -> unit

val hits : t -> int
val misses : t -> int
(** [lookup] updates these counters. *)
