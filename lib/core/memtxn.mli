(** Batched memory transactions: the one descriptor every access path of
    the simulator flows through.

    Application threads used to trap into the kernel once per word; every
    backend (the PLATINUM coherent memory, the bus-based UMA machine)
    duplicated the loop that walks an access, threads simulated time
    through it, and accumulates latency.  A {!t} describes a whole access
    — one word, a read-modify-write, a contiguous block, or a strided
    scatter/gather — and {!run} is the single cost-accounting routine both
    backends share.

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
      (** atomic read-modify-write; the result carries the old value *)
  | Block_read of { vaddr : int; dst : int array; dst_off : int; len : int }
      (** [len] consecutive words into [dst.(dst_off .. dst_off+len-1)] (a
          hardware block transfer: bypasses the per-processor word caches) *)
  | Block_write of { vaddr : int; src : int array; src_off : int; len : int }
      (** [len] consecutive words from [src.(src_off .. src_off+len-1)] *)
  | Stride_read of
      { vaddr : int; dst : int array; dst_off : int; count : int; elem_words : int; stride : int }
      (** [count] elements of [elem_words] consecutive words each, the
          k-th starting at [vaddr + k*stride] and landing at
          [dst.(dst_off + k*elem_words ..)]; charged like a block transfer
          over each contiguous run *)
  | Stride_write of
      { vaddr : int; src : int array; src_off : int; count : int; elem_words : int; stride : int }
      (** element [k] is [src.(src_off + k*elem_words .. src_off + (k+1)*elem_words - 1)] *)

type result =
  | Unit  (** writes, and block/strided reads (their data is in the slice) *)
  | Word of int  (** [Read]: the value; [Rmw]: the old value *)

val data_words : t -> int
(** Words of application data the transaction moves. *)

val validate : t -> unit
(** Raises [Invalid_argument] on malformed shapes: negative lengths,
    [elem_words < 1], overlapping stride elements ([stride < elem_words]),
    or a slice that does not lie inside its array. *)

(** A maximal run of consecutive words that stays inside one page — the
    unit a backend translates and charges as a whole.  Generalizes the old
    [Coherent.block_loop] chunking to strided transactions.

    One chunk record is refilled per iteration (allocation-lean chunking);
    callbacks must read the fields immediately and never retain the
    record. *)
type chunk = {
  mutable c_vaddr : int;  (** first word address of the run *)
  mutable c_index : int;  (** index of the run's first word in [data], slice offset included *)
  mutable c_words : int;  (** length of the run *)
}

(** Reusable per-caller buffers: the chunk record the iteration refills and
    a one-word data buffer for word transactions.  With a scratch supplied,
    {!run} on a word transaction allocates only its result; without one it
    also allocates the chunk and the buffer.  Not reentrant — one scratch
    per concurrently running transaction stream. *)
type scratch

val make_scratch : unit -> scratch

val iter_pages : page_words:int -> t -> (int -> unit) -> unit
(** The virtual pages the transaction touches, in chunk order (ascending
    address, element by element for strided transactions), consecutive
    duplicates elided — what a VM layer must ensure is bound before the
    coherent layer runs. *)

val run :
  page_words:int ->
  now:int ->
  ?scratch:scratch ->
  t ->
  chunk_cost:(now:int -> data:int array -> chunk -> int) ->
  result * int
(** The shared cost-accounting loop.  Validates the transaction and calls
    [chunk_cost] once per chunk, in {!iter_pages} order, with the time at which that chunk begins
    ([now] plus the latency of every earlier chunk); [chunk_cost] performs
    the data movement against [data] — the caller's slice array for a
    block or strided transaction, a one-word buffer otherwise (reads fill
    [data.(c_index ..)], writes consume it, an [Rmw] leaves the old value
    in [data.(0)]) — and returns the chunk's latency.  Allocates no data
    buffer for a multi-word transaction.  Returns the result and the total
    latency. *)
