(** Per-module inverted page table.

    The paper keeps one inverted page table per memory module, describing
    every physical page in that module; the fault handler hashes the Cpage
    index into it to find a local copy using strictly local memory accesses
    (§3.3).  This module preserves the semantics (cpage → local frame
    lookup, free-frame allocation) with a hash table plus free list, built
    lazily: [create] allocates O(1), whatever the frame count. *)

type t

val create : mem_module:int -> frames:int -> page_words:int -> t

val mem_module : t -> int
val capacity : t -> int
val free_count : t -> int
val used_count : t -> int

val alloc : t -> cpage:int -> Frame.t option
(** Allocate a free frame to back the given coherent page; [None] when the
    module is full.  The frame is registered so [lookup] finds it.  At most
    one frame per (module, cpage) may exist — the directory invariant that
    copies live in *different* memory modules. *)

val lookup : t -> cpage:int -> Frame.t option
(** The local physical copy of a coherent page, if any. *)

val free : t -> Frame.t -> unit
(** Return a frame to the free list and unregister its cpage binding. *)
