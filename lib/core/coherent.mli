(** The coherent memory system: Cpage table, Cmaps, fault handling,
    replication policy, and the freeze/thaw machinery, assembled.

    This is the machine-dependent layer that replaces the Mach pmap module
    (§1.1): above it sits the VM system (memory objects, address spaces);
    below it sit physical memory and the machine model.

    All operations take [now] and return a latency in nanoseconds; the
    kernel charges that latency to the issuing processor. *)

type t

val create :
  Platinum_machine.Machine.t ->
  engine:Platinum_sim.Engine.t ->
  policy:Policy.t ->
  ?frames_per_module:int ->
  unit ->
  t
(** [frames_per_module] defaults to 1024 (4 MB of 4 KB pages per node, as
    on the Butterfly Plus). *)

val machine : t -> Platinum_machine.Machine.t
val config : t -> Platinum_machine.Config.t
val phys : t -> Platinum_phys.Phys_mem.t
val counters : t -> Counters.t
val policy : t -> Policy.t
val page_words : t -> int

(* --- address spaces and pages --- *)

val new_aspace : t -> Cmap.t
val new_cpage : t -> ?home:int -> ?label:string -> unit -> Cpage.t

val bind : t -> Cmap.t -> vpage:int -> Cpage.t -> Rights.t -> unit
(** Install a virtual-to-coherent mapping in an address space. *)

val unbind : t -> now:Platinum_sim.Time_ns.t -> Cmap.t -> vpage:int -> int
(** Remove a mapping, shooting down any translations.  Returns latency. *)

val activate : t -> now:Platinum_sim.Time_ns.t -> proc:int -> aspace:int -> int
(** Make [aspace] current on [proc]: its ATC records the space and is
    flushed, and so is its §7 cache.  Raises [Invalid_argument] on an
    unknown [aspace], before any state changes.  Returns latency (0 if
    already active). *)

(* --- the access paths --- *)

(** Every access goes through {!submit}; the coalescer's hit cores
    ({!fp_read} and its siblings) are the only other way in.  The scratch
    pair below is the per-word path {!submit} runs, exported only for the
    benchmark's steady-hit floor ([perf/floors.ml]), which times it with no
    transaction in between.  A scratch is a reusable latency slot: the
    [_s] calls write their latency into it and return the bare value, so
    a steady-state hit (active aspace, ATC hit, sufficient rights)
    allocates zero minor-heap words.  Not reentrant — one scratch per
    access stream. *)
type scratch

val make_scratch : unit -> scratch

val read_word_s :
  t -> scratch -> now:Platinum_sim.Time_ns.t -> proc:int -> cmap:Cmap.t -> vaddr:int -> int
(** The word value; the latency goes into the scratch.  Exactly what
    {!submit} of a one-word [Read] does (same faults, same cache and
    interconnect charging). *)

val write_word_s :
  t -> scratch -> now:Platinum_sim.Time_ns.t -> proc:int -> cmap:Cmap.t -> vaddr:int ->
  int -> unit

val write_word :
  t -> now:Platinum_sim.Time_ns.t -> proc:int -> cmap:Cmap.t -> vaddr:int -> int -> int
(** {!submit} of a one-word [Write]: the latency.  Kept beside the
    scratch pair for the same floor, which warms its page with it. *)

(* --- the coalescing fast-path cores (DESIGN.md §4g) ---

   Hit-only word accesses for the kernel's effect-boundary coalescer:
   they complete the access iff it is a clean steady-state hit (an ATC
   entry of the active aspace, sufficient rights, page not frozen),
   returning its latency, and return [-1] otherwise — never translating,
   never faulting, never touching policy state.  Every condition is read
   from the translation on each call, so a caller caches nothing.  A
   successful call charges exactly what the [_s] path's hit arm charges
   at the same [now], and like it never involves the monitor; read the
   result via {!fp_value_cell}.  Not reentrant (shared scratch). *)

val fp_read :
  t -> now:Platinum_sim.Time_ns.t -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> int
val fp_write :
  t -> now:Platinum_sim.Time_ns.t -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int ->
  int -> int
val fp_rmw :
  t -> now:Platinum_sim.Time_ns.t -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int ->
  (int -> int) -> int

val fp_value_cell : t -> int ref
(** The shared word cell: the last successful {!fp_read}/{!fp_rmw}, and
    every {!submit}ted [Read]/[Rmw], leave their word here. *)

val submit :
  t ->
  now:Platinum_sim.Time_ns.t ->
  proc:int ->
  cmap:Cmap.t ->
  Memtxn.t ->
  int
(** Run one memory transaction against the coherent memory: the single
    access path every word, block and strided operation flows through.
    A block or strided transaction is walked with the {!Memtxn.chunk}
    cursor; each chunk translates (faulting if needed: ATC hit, else Pmap
    reload, else a {!Fault.plan}) at the simulated time it begins and
    is charged on the interconnect, so batching never changes simulated
    cost.  Word reads use the per-processor caches; block and strided
    transfers bypass them (§7).  Returns the latency; a [Read] or [Rmw]
    leaves its word (the value, or the old value) in {!fp_value_cell}.
    A transaction that does not fault allocates nothing.  Raises
    {!Fault.Unmapped} when the VM layer must intervene. *)

(* --- placement advice (the §9 hint interface) --- *)

(** The paper (§9): "it is not hard to construct scenarios in which
    better performance could be obtained if the interface between the
    application and the memory management system were not so
    transparent.  The kernel interface will be extended to support
    these... utilized primarily by programming languages and their
    run-time support."  Advice never changes semantics — only placement:

    - [Freeze]: the caller knows the page is fine-grain
      write-shared; freeze it immediately instead of discovering that
      through a round of invalidation thrash.
    - [Thaw]: the caller knows a phase change happened; thaw now
      rather than waiting for the defrost daemon.
    - [Home m]: collapse the page to a single copy on module [m]
      (a placement directive for frozen or never-replicated data). *)
type advice =
  | Freeze
  | Thaw
  | Home of int

val advise :
  t ->
  now:Platinum_sim.Time_ns.t ->
  proc:int ->
  cmap:Cmap.t ->
  vpage:int ->
  advice ->
  int
(** Apply advice to one page; returns the latency of the kernel work it
    triggered.  Raises {!Fault.Unmapped} if the page is not bound. *)

(* --- freeze / thaw --- *)

val freeze_page : t -> now:Platinum_sim.Time_ns.t -> Cpage.t -> unit
val thaw_page : t -> now:Platinum_sim.Time_ns.t -> by_daemon:bool -> Cpage.t -> unit
(** Thaw one page: invalidate all its translations (charged to the page's
    home processor as daemon work) so the next access may replicate it.
    [by_daemon] attributes the thaw to the defrost daemon in probe events. *)

val thaw_all : t -> now:Platinum_sim.Time_ns.t -> unit
(** What the defrost daemon does every t2. *)

val frozen_pages : t -> Cpage.t list

val set_probe : t -> Probe.t option -> unit
(** Install (or remove) the instrumentation callback; see {!Probe}. *)

val set_freeze_hook : t -> (now:Platinum_sim.Time_ns.t -> Cpage.t -> unit) option -> unit
(** Internal notification used by the adaptive defrost daemon: called
    whenever the policy freezes a page. *)

(* --- introspection --- *)

val iter_cpages : (Cpage.t -> unit) -> t -> unit

val check_faults : t -> Check.fault option
(** Machine-wide consistency, structured: every {!Cpage} invariant
    (via {!Check.check_page}), directory frame ownership, frozen-list
    agreement in both directions, every {!Cmap.check_faults} (refmask ↔
    Pmap ↔ directory agreement, replicas read-only, no stale Pmap entry).
    The ATC needs no sweep: it is a stamp on the Pmap entry ({!Atc}), so
    a stale cached translation cannot exist.  Returns the first fault
    found. *)

val check_invariants : t -> (unit, string) result
(** [check_faults] rendered to a message, for callers that just assert. *)

(* --- the coherence sanitizer (PLATINUM_CHECK=1) --- *)

val monitor : t -> Check.monitor option

val set_monitor : t -> Check.monitor option -> unit
(** Arm (or disarm) the runtime invariant monitor.  [create] arms one
    automatically when the [PLATINUM_CHECK] environment variable is set.
    While armed: every protocol event and faulting request is recorded in
    the monitor's bounded trace, the machine-wide sweep re-runs after
    every completed protocol transition (fault resolution, freeze, thaw,
    unbind, advice), shootdown completion is verified target-by-target,
    and any violation raises {!Check.Violation} carrying the replayable
    event prefix.  When [None] (the default) the only cost is a [None]
    test at each transition — nothing on the ATC-hit hot path. *)

val atc : t -> proc:int -> Atc.t
(** Processor [proc]'s address-translation cache (read-only uses). *)
