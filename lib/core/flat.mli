(** Chunked vpage-indexed tables (the flat storage behind {!Pmap} and
    {!Cmap}).

    A table maps non-negative integer keys — virtual page numbers — to
    values through a two-level array: an outer chunk directory grown
    geometrically, and fixed-size chunks ([chunk_size] = 512 entries)
    allocated on first touch.  Resident memory is therefore proportional
    to the {e touched} footprint, not the address-space span, which is
    what lets a GB-scale sparse address space cost kilobytes: 4 KB per
    touched 512-page window, plus a directory of at most 8192 pointers
    (64 KB) for a touch at the top of the span.  512 is the smallest chunk
    the runtime still allocates straight on the major heap, so a first
    touch costs the minor heap nothing.  The steady-state
    lookup is two bounds checks and two loads; [find] returns the
    {e stored} option cell, never a fresh [Some], so a hit allocates zero
    minor-heap words.  Keys outside [0, dense_limit) (negative, or beyond
    the chunk-addressable span) spill to a hash table whose values are
    pre-wrapped options, keeping even spill hits allocation-free. *)

type 'a t

val dense_limit : int
(** Keys in [0, dense_limit) use the chunked arrays; others spill. *)

val chunk_size : int
(** Entries per chunk, a power of two: key [k] lives in chunk
    [k / chunk_size].  One chunk is the allocation granule of the table. *)

val chunk_mask : int
(** [chunk_size - 1]: key [k]'s slot within its chunk is
    [k land chunk_mask]. *)

val create : unit -> 'a t

val find : 'a t -> int -> 'a option
(** The stored option cell — never freshly allocated on a hit. *)

val mem : 'a t -> int -> bool
val set : 'a t -> int -> 'a -> unit
(** Add or replace.  First touch of a chunk allocates it. *)

val remove : 'a t -> int -> unit
(** Unbind a key.  A no-op on keys whose chunk was never touched —
    nothing is allocated. *)

val clear : 'a t -> unit
(** Drop every binding and release all chunks. *)

val length : 'a t -> int
(** Number of bound keys, O(1). *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Chunked keys in ascending order, then spill keys in hash order. *)

val chunk_count : 'a t -> int
(** Current length of the outer chunk directory: it grows only when [set]
    reaches a chunk beyond it. *)
