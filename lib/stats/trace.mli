(** A protocol-event trace recorder built on {!Platinum_core.Probe}.

    Attach one to a coherent memory instance before a run; afterwards you
    get a timestamped timeline of replications, migrations, freezes and
    thaws — the "performance monitoring, analysis, and visualization"
    feedback loop of §9, in miniature. *)

type entry = {
  at : Platinum_sim.Time_ns.t;
  event : Platinum_core.Probe.event;
}

type t

val create : unit -> t
(** A bounded recorder (100_000 entries); when full, the oldest
    entries are dropped and [dropped] counts them. *)

val attach : t -> Platinum_core.Coherent.t -> unit
(** Install this recorder as the instance's probe. *)

val entries : t -> entry list
(** Recorded entries, oldest first. *)

val length : t -> int
val dropped : t -> int

val count : t -> (Platinum_core.Probe.event -> bool) -> int
(** Streaming: allocates no intermediate list. *)

val pp_timeline : ?limit:int -> Format.formatter -> t -> unit
(** Human-readable timeline (default at most 50 lines). *)
