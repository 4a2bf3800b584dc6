(** Coherent pages: the unit of the PLATINUM data-coherency protocol.

    Each coherent page is backed by a *set* of physical pages in distinct
    memory modules, tracked by a directory (a module bit mask plus one
    frame slot per module, §2.3).  A Cpage is in one of four states (§3.2):

    - [Empty]: no physical pages, no translations.
    - [Present1]: exactly one physical page; every virtual-to-physical
      translation is restricted to read access.
    - [Present_plus]: two or more physical pages in different modules; all
      translations read-only.
    - [Modified]: one physical page; at least one translation allows
      writes.

    The state is not stored: {!state} computes it from the directory and
    the write-mapping flag, so it cannot disagree with them.
    [check_invariants] verifies the directory and replica data equality. *)

type state =
  | Empty
  | Present1
  | Present_plus
  | Modified

(** Per-page instrumentation, mirroring the kernel's post-mortem report
    (§4.2): faults, a contention measure for the fault handler, and whether
    the replication policy froze the page. *)
type stats = {
  mutable read_faults : int;
  mutable write_faults : int;
  mutable replications : int;
  mutable migrations : int;
  mutable invalidations : int;  (** protocol invalidation events *)
  mutable restrictions : int;
  mutable freezes : int;
  mutable thaws : int;
  mutable remote_maps : int;
  mutable fault_wait_ns : int;  (** queueing observed inside the fault handler *)
  mutable ever_written : bool;
  mutable was_frozen : bool;  (** frozen at least once during the run *)
}

type t = {
  id : int;
  home : int;  (** memory module holding this entry's metadata *)
  mutable slots : Platinum_phys.Frame.t option array;
      (** the directory: at most one backing frame per memory module,
          indexed by module number — O(1) add/remove/membership.  Use
          {!add_copy} / {!remove_copy} / {!copies}; never write directly. *)
  mutable slot_seq : int array;
      (** insertion stamp per slot (-1 = empty): {!any_copy} must keep
          choosing the most recently added copy, as the old cons list did *)
  mutable next_seq : int;
  mutable copy_mask : Platinum_machine.Procset.t;
      (** modules holding a backing page (the directory's bit mask) *)
  mutable write_mapped : bool;
      (** some translation grants write access *)
  mutable last_protocol_inval : Platinum_sim.Time_ns.t;
      (** most recent invalidation *by the coherency protocol*; defrost
          invalidations deliberately do not update this *)
  mutable frozen : bool;
  mutable frozen_at : Platinum_sim.Time_ns.t;  (** when the current freeze began *)
  mutable last_thaw_at : Platinum_sim.Time_ns.t;
  mutable adaptive_t2 : Platinum_sim.Time_ns.t;
      (** per-page thaw delay maintained by the adaptive defrost daemon;
          0 until first frozen *)
  stats : stats;
  mutable label : string;  (** what the application stored here, for reports *)
}

val never_invalidated : Platinum_sim.Time_ns.t
(** Initial [last_protocol_inval]: far enough in the past that a fresh page
    is always eligible for replication. *)

val create : id:int -> home:int -> ?label:string -> unit -> t

val ncopies : t -> int
(** Occupied directory slots: the population of [copy_mask]. *)

val has_copy_on : t -> int -> bool
(** [has_copy_on t m] — does module [m] back this page?  One bit test. *)

val local_copy : t -> int -> Platinum_phys.Frame.t option
(** Backing frame on the given module, if any.  One slot load, returning
    the stored cell — no allocation.  The slots are the only cpage→frame
    index: the kernel's per-module inverted page table (§3.3) is the same
    mapping read from the frame side. *)

val any_copy : t -> Platinum_phys.Frame.t
(** The most recently added backing frame (the replication source choice
    the protocol has always made).  Raises [Invalid_argument] on an
    [Empty] page. *)

val mem_frame : t -> Platinum_phys.Frame.t -> bool
(** Is this very frame (physical identity) in the directory?  O(1). *)

val add_copy : t -> Platinum_phys.Frame.t -> unit
val remove_copy : t -> Platinum_phys.Frame.t -> unit

val copies : t -> Platinum_phys.Frame.t list
(** The directory as a list, most recently added first — the order the old
    cons-list representation exposed.  Allocates; for checks, reports and
    tests, not the access path. *)

val iter_copies : (Platinum_phys.Frame.t -> unit) -> t -> unit
(** Iterate the occupied slots in ascending module order, allocation-free.
    The callback must not edit the directory; snapshot with {!copies} when
    it does. *)

val state : t -> state
(** The state the directory and write flag imply (§3.2): [Empty] with no
    copies, [Present_plus] with two or more, else [Modified] or [Present1]
    by [write_mapped].  Allocation-free. *)

val to_view : t -> Check.page_view
(** Snapshot the protocol-relevant fields for the {!Check} catalogue. *)

val check_faults : t -> (unit, Check.fault) result
(** Run the {!Check.page_invariants} catalogue on this page. *)

val check_invariants : t -> (unit, string) result
(** {!check_faults} rendered to a message.  Verifies copy-mask/copy-list
    agreement, one copy per module, a single writer, frozen-single-copy
    and data equality of replicas — delegating to the one catalogue in
    {!Check}. *)

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
