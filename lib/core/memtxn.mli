(** Batched memory transactions: the one descriptor every access path of
    the simulator flows through.

    Application threads used to trap into the kernel once per word; every
    backend (the PLATINUM coherent memory, the bus-based UMA machine)
    duplicated the loop that walks an access, threads simulated time
    through it, and accumulates latency.  A {!t} describes a whole access
    — one word, a read-modify-write, a contiguous block, or a strided
    scatter — and {!chunk} is the single cursor every backend walks
    it with.

    {b The batching invariant}: a transaction's simulated cost is the sum
    of its per-chunk costs, each charged at [now +] the latency accumulated
    so far — exactly what issuing the runs back-to-back unbatched would
    charge.  Grouping words into one transaction changes how much host
    work the simulator does per simulated word, never the simulated time. *)

(** {b The buffer contract.}  Every multi-word transaction moves data
    through a slice of an array its caller owns: reads fill it, writes
    drain it, and no backend allocates a result or retains the array past
    completion.  A caller reusing one buffer across transactions therefore
    moves data with no heap traffic at all. *)
type t =
  | Read of { vaddr : int }  (** one 32-bit word *)
  | Write of { vaddr : int; value : int }
  | Rmw of { vaddr : int; f : int -> int }
      (** atomic read-modify-write; the backend hands back the old value *)
  | Block_read of { vaddr : int; dst : int array; dst_off : int; len : int }
      (** [len] consecutive words into [dst.(dst_off .. dst_off+len-1)] (a
          hardware block transfer: bypasses the per-processor word caches) *)
  | Block_write of { vaddr : int; src : int array; src_off : int; len : int }
      (** [len] consecutive words from [src.(src_off .. src_off+len-1)] *)
  | Stride_write of
      { vaddr : int; src : int array; src_off : int; count : int; elem_words : int; stride : int }
      (** [count] elements of [elem_words] consecutive words each, the
          k-th starting at [vaddr + k*stride] and taken from
          [src.(src_off + k*elem_words ..)]; charged like a block transfer
          over each contiguous run *)

val data_words : t -> int
(** Words of application data the transaction moves. *)

val validate : t -> unit
(** Raises [Invalid_argument] on malformed shapes: negative lengths,
    [elem_words < 1], overlapping stride elements ([stride < elem_words]),
    or a slice that does not lie inside its array. *)

(** A maximal run of consecutive words that stays inside one page — the
    unit a backend translates and charges as a whole — and the cursor
    that walks a transaction's runs.  The one chunker of the simulator:
    every backend and the VM binding loop drive it.

    {!first} and {!next} refill the same record, so a walk allocates
    nothing.  Chunks come in ascending address order, element by element
    for strided transactions; a word transaction is one one-word chunk
    with [c_index = 0].  Callers drive it with a plain loop:
    [if first c ~page_words txn then (work c; while next c do work c done)].
    Not reentrant — one record per concurrently walked transaction. *)
type chunk = private {
  mutable c_vaddr : int;  (** first word address of the run *)
  mutable c_index : int;  (** index of the run's first word in the slice array, offset included *)
  mutable c_words : int;  (** length of the run *)
  (* the cursor's own state; callers read only the [c_] fields *)
  mutable k_left : int;
  mutable k_elems : int;
  mutable k_elem_words : int;
  mutable k_stride : int;
  mutable k_page_words : int;
  mutable k_page_shift : int;
}

val make_chunk : unit -> chunk

val first : chunk -> page_words:int -> t -> bool
(** Point the cursor at the transaction's first chunk; [false] if it
    moves no words. *)

val next : chunk -> bool
(** Advance to the next chunk; [false] once the transaction is done. *)
