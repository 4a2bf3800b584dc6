(** The effects through which simulated threads reach the kernel.

    Application code is ordinary OCaml written in direct style; every
    interaction with simulated memory, time, or kernel services performs
    one of these effects.  The kernel ({!Kernel}) installs the handler,
    charges simulated time, and resumes the continuation through the
    discrete-event engine.  Use the wrappers in {!Api} rather than
    performing these directly.

    The kernel services form one closed type, {!request}, carried by the
    single {!Syscall} effect, so the kernel handles them in one exhaustive
    match: a service without a handler arm is a compile error.  Only the
    three effects that run on every simulated operation — {!Access_txn},
    {!Compute} and {!Sleep} — stay separate constructors of the open
    [Effect.t], because wrapping them in [Syscall] would cost one more
    2-word block on every perform.  A new service goes into {!request}. *)

type thread_id = int
type port_id = int
type zone_id = int

type _ request =
  | Yield : unit request
  | Spawn : (unit -> unit) * int option * int option -> thread_id request
      (** (body, processor hint, address-space override — None inherits
          the spawner's; a thread executes within a single address space,
          §1.1) *)
  | Join : thread_id -> unit request
  | Migrate : int -> unit request  (** move this thread to a processor *)
  | Self : thread_id request
  | My_proc : int request
  | Now : int request  (** simulated time, for instrumentation *)
  | New_port : port_id request
  | Port_send : port_id * int array -> unit request
  | Port_recv : port_id -> int array request
  | New_zone : string * int -> zone_id request  (** (name, pages) *)
  | Alloc : zone_id * int * bool -> int request
      (** (zone, words, page-aligned); returns the virtual address *)
  | Alloc_pages : zone_id * int -> int request
      (** (zone, pages); whole-page, page-aligned allocation *)
  | Page_words : int request  (** the machine's page size in words *)
  | Advise : int * int * Memsys.advice -> unit request
      (** (vaddr, len, advice): the §9 placement-hint interface *)
  | My_aspace : int request
  | New_aspace : int request  (** a fresh, empty address space *)
  | New_segment : string * int -> int request
      (** (name, pages): a globally named memory object *)
  | Map_segment : int -> int request
      (** bind a segment into the calling thread's address space; returns
          the base vaddr there *)
  | Inject_handle : Platinum_sim.Inject.t option request
      (** the machine's fault-injection plane, if one is attached — lets
          user-level recovery code (RPC retransmission) consult the same
          per-machine adversary the kernel paths use *)

type _ Effect.t +=
  | Access_txn : Platinum_core.Memtxn.t -> int Effect.t
      (** one memory transaction — a word read/write, an atomic
          read-modify-write, a contiguous block, or a strided
          scatter.  One kernel trap per transaction: batching is
          the hot-path optimization, and the backend guarantees the
          simulated cost equals the unbatched word-by-word stream.
          Returns the word of a [Read] or [Rmw] ({!Api.access}) *)
  | Compute : int -> unit Effect.t  (** spend n ns of local computation *)
  | Sleep : int -> unit Effect.t
      (** block for n ns of simulated time without occupying the
          processor — a timer, not computation.  The wake-up is an
          ordinary engine event, so it keeps the run alive *)
  | Syscall : 'a request -> 'a Effect.t  (** every other kernel service *)
