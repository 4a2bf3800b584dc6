(** Parallel merge sort with a tree of merge threads (§5.2; Figure 5).

    Anderson's study ran this on a Sequent Symmetry; the paper reruns it on
    PLATINUM and observes better speedup because, during each merge phase,
    half of a merging thread's input is already local and the linear access
    pattern means every word a coherent-page fault prefetches gets used —
    while the Sequent's small write-through caches retain nothing between
    phases.

    [nprocs] must be a power of two.  Leaf threads sort contiguous chunks
    (first touch pulls the data local), then pairs merge level by level;
    the merger sits on the left child's processor, so its left input is
    local.  Self-verifies (sorted + permutation of the input). *)

type params = {
  n : int;  (** element count; rounded up to a multiple of [nprocs] *)
  nprocs : int;
  seed : int;
  verify : bool;
}

val params :
  ?n:int ->
  ?seed:int ->
  ?verify:bool ->
  nprocs:int ->
  unit ->
  params
(** Default n = 65536; merges stream through 256-word buffers.  Merging costs 1.5 µs per
    element. *)

val make : params -> Outcome.t * (unit -> unit)
