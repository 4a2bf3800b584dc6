(** A physical page frame.

    Frames carry real data words: replicas share them, and the
    application reads and writes through them, so protocol bugs corrupt
    application results and are caught by the output-checking tests.
    Every frame reads as its own memory.  A write to a buffer that another
    live frame shares raises {!Shared_write}: the page would have a writer
    and a second copy, which §3.2 forbids. *)

type t

val create : mem_module:int -> index:int -> words:int -> t

val mem_module : t -> int
(** The memory module holding this frame. *)

val index : t -> int
(** Frame number within its module. *)

val words : t -> int

val owner : t -> int option
(** Id of the coherent page backed by this frame, if allocated. *)

val set_owner : t -> int option -> unit
(** [set_owner f None] frees the frame.  A freed sharer drops its share
    without allocating and raises on access until the next {!fill_zero}
    or {!blit_from}; any other keeps its stale words. *)

exception Shared_write of { mem_module : int; index : int; owner : int }
(** The [shared-write] violation (§3.2): {!set}, {!write_words} or
    {!fill_zero} of frame [index] on [mem_module], backing cpage [owner],
    while another live frame shares its buffer.  Checked in every run, at
    the write, with or without the coherence monitor. *)

val get : t -> int -> int
(** [get f off] reads word [off]. *)

val set : t -> int -> int -> unit

(** {b The block copies.}  [read_words] and [write_words] are the data
    plane of every block transfer.  They are typed [int array] loops, not
    [Array.blit]: [Array.blit] is polymorphic, so when its destination
    lives in the major heap — every 1024-word frame, and any buffer over
    256 words — OCaml 5 runs [caml_modify] on every word it copies.  An
    [int array] store needs no write barrier.  Each checks its ranges
    once and raises [Invalid_argument] before copying anything.  They are
    in the zero-alloc catalogue ([Rule_alloc]) with [get], [set] and
    [blit_from]. *)

val read_words : t -> off:int -> dst:int array -> dst_off:int -> words:int -> unit
(** Copy [words] data words starting at [off] into [dst] at [dst_off] — the
    data plane of a block-transfer chunk. *)

val write_words : t -> off:int -> src:int array -> src_off:int -> words:int -> unit

val blit_from : src:t -> dst:t -> unit
(** Give [dst] the data words of [src] by sharing [src]'s buffer, until
    one of them is freed; a write to either meanwhile raises
    {!Shared_write}, and a repeat blit is a no-op.  Both frames must have
    the same size and [src] must hold data. *)

val fill_zero : t -> unit
(** Zero every word; a freed sharer gets a buffer of its own again. *)

val equal_data : t -> t -> bool
(** Word-for-word data equality (used by coherence invariant checks). *)
