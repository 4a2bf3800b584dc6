(** Physical memory of the whole machine: one free list per memory module.

    The paper's per-module inverted page table (§3.3) maps frames to the
    cpages they back.  That mapping lives in each Cpage's directory slots
    ([Cpage.local_copy] in platinum_core) and in each frame's owner, so this
    module only hands frames out and takes them back.

    Built lazily: [create] is O(1) whatever the frame count, and a frame
    appears the first time it is handed out, with no buffer until its
    first [Frame.fill_zero] or [Frame.blit_from] (an access before raises
    [Frame.Unbacked_read]).  Frames go out most recently freed first, then
    never-used frames by ascending index.  A freed frame is kept, so a
    re-allocated frame is the same [Frame.t] with whatever data it last held. *)

type t

val create : modules:int -> frames_per_module:int -> page_words:int -> t

val modules : t -> int
val page_words : t -> int

val page_shift : int -> int
(** [log2 page_words] for a power-of-two page, else [-1]: the [~shift] of
    the page split below, [vaddr / page_words] and [vaddr mod page_words]
    as a shift and a mask, dividing only on other pages or negative [vaddr]. *)

val vpage : shift:int -> page_words:int -> int -> int
val offset : shift:int -> page_words:int -> int -> int

val alloc : t -> mem_module:int -> cpage:int -> Frame.t option
(** A free frame of the given module, now owned by [cpage]; [None] when
    the module is full. *)

val free : t -> Frame.t -> unit
(** Return a frame to its module's free list.  Raises [Invalid_argument]
    if the frame is already free. *)

val free_count : t -> mem_module:int -> int
val total_free : t -> int
val total_frames : t -> int
