(** Physical memory of the whole machine: one free list per memory module.

    The paper's per-module inverted page table (§3.3) maps frames to the
    cpages they back.  That mapping lives in each Cpage's directory slots
    ([Cpage.local_copy] in platinum_core) and in each frame's owner, so this
    module only hands frames out and takes them back.

    Built lazily: [create] is O(1) whatever the frame count, and a frame's
    data array appears the first time it is handed out.  Frames go out
    most recently freed first, then never-used frames by ascending index.
    A freed frame is kept, so a re-allocated frame is the same [Frame.t]
    with whatever stale data it last held. *)

type t

val create : modules:int -> frames_per_module:int -> page_words:int -> t

val modules : t -> int
val page_words : t -> int

val alloc : t -> mem_module:int -> cpage:int -> Frame.t option
(** A free frame of the given module, now owned by [cpage]; [None] when
    the module is full. *)

val free : t -> Frame.t -> unit
(** Return a frame to its module's free list.  Raises [Invalid_argument]
    if the frame is already free. *)

val free_count : t -> mem_module:int -> int
val total_free : t -> int
val total_frames : t -> int
