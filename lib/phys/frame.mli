(** A physical page frame.

    Frames carry real data words: replication shares them until a write,
    and the application reads and writes through them, so protocol bugs
    corrupt application results and are caught by the output-checking
    tests.  Every frame reads as its own memory. *)

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

val get : t -> int -> int
(** [get f off] reads word [off]. *)

val set : t -> int -> int -> unit
(** Copies the buffer first while another live frame shares it. *)

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
(** Give [dst] the data words of [src] by sharing [src]'s buffer; a later
    write to either copies it first, and a repeat blit is a no-op.  Both
    frames must have the same size and [src] must hold data. *)

val fill_zero : t -> unit

val equal_data : t -> t -> bool
(** Word-for-word data equality (used by coherence invariant checks). *)
