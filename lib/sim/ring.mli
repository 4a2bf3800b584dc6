(** A fixed-capacity ring buffer keeping the most recent pushes.

    Used by the coherence sanitizer to retain a bounded, replayable prefix
    of recent protocol events, and by [Platinum_stats.Trace] as its
    recorder: pushes past the capacity silently overwrite the oldest
    entries, so holding one costs O(capacity) regardless of run length. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] unless [capacity > 0]. *)

val push : 'a t -> 'a -> unit

val length : 'a t -> int
(** Entries currently retained (at most [capacity]). *)

val pushed : 'a t -> int
(** Total pushes ever, including overwritten ones. *)

val clear : 'a t -> unit

val fold : 'a t -> ('b -> 'a -> 'b) -> 'b -> 'b
(** [fold t f init] folds [f] over the retained entries, oldest first,
    without building a list. *)

val to_list : 'a t -> 'a list
(** Retained entries, oldest first. *)
