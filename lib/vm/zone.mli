(** Disjoint memory-allocation zones (§6).

    "A run-time library for defining disjoint memory allocation zones and
    for specifying page-aligned allocation helps PLATINUM programmers"
    separate data with different access patterns: private per-thread data,
    read-mostly shared data, and fine-grain synchronization variables each
    go to their own zone, so they never share a page.  Internal
    fragmentation is the accepted price (§6). *)

type t

val create :
  Addr_space.t ->
  name:string ->
  ?rights:Platinum_core.Rights.t ->
  pages:int ->
  unit ->
  t
(** Create a zone backed by a fresh memory object bound into the address
    space.  [rights] defaults to read-write. *)

val alloc : t -> words:int -> ?page_aligned:bool -> unit -> int
(** Bump-allocate [words] words; returns the virtual word address.
    [page_aligned] (default false) rounds the start up to a page boundary.
    Raises [Failure] when the zone is exhausted. *)

val used_words : t -> int
