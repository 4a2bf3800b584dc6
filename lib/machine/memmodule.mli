(** A memory module with FIFO contention.

    Each processor node of the Butterfly contributes one memory module.  A
    module serves one request at a time; concurrent requests queue.  The
    model tracks a [busy_until] horizon: a request arriving at time [t]
    starts at [max t busy_until] and occupies the module for its service
    time.  Queueing delay is the dominant contention effect the paper
    discusses (§1, §7). *)

type t

val create : unit -> t
(** An idle module. *)

val acquire : t -> arrival:Platinum_sim.Time_ns.t -> service:int -> Platinum_sim.Time_ns.t
(** [acquire m ~arrival ~service] reserves the module for [service] ns
    starting at [max arrival busy_until]; returns the start time.  The
    caller's latency contribution is [(start - arrival) + service]. *)

val busy_until : t -> Platinum_sim.Time_ns.t

val reserve_until : t -> Platinum_sim.Time_ns.t -> unit
(** Extend the busy horizon to at least the given time (used by block
    transfers, which occupy both modules involved). *)

(* --- statistics --- *)

val total_busy_ns : t -> int
(** Cumulative occupancy. *)

val total_wait_ns : t -> int
(** Cumulative queueing delay experienced by requests at this module. *)

val requests : t -> int

val utilization : t -> horizon:Platinum_sim.Time_ns.t -> float
(** Occupancy as a fraction of [horizon]. *)
