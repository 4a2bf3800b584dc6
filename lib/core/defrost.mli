(** The defrost daemon (§4.2).

    Periodic mode: a clock interrupt every [t2] activates the daemon,
    which invalidates all mappings to the frozen coherent pages;
    subsequent accesses fault and may replicate or migrate a recently
    thawed page.  This is how the memory system reacts to phase changes
    and rescues accidentally frozen pages (the Gaussian-elimination
    anecdote).

    Adaptive mode: the alternative the paper sketches — "maintain the
    list of frozen pages as a priority queue ordered by thaw time.  This
    allows the daemon to run more often than every t2 seconds.  It also
    allows t2 to be set adaptively on a per-page basis."  Each freeze
    schedules that page's own thaw at [freeze time + its t2]; a page that
    refreezes soon after a thaw (the thaw was wrong — it really is
    write-shared) has its per-page t2 doubled up to [max_t2], so hot
    synchronization pages stop being churned while phase-change pages
    thaw quickly.  (The simulator's event queue is the priority queue.) *)

type mode =
  | Periodic  (** thaw everything every t2 (the paper's default) *)
  | Adaptive of {
      initial_t2 : Platinum_sim.Time_ns.t;  (** first per-page thaw delay *)
      max_t2 : Platinum_sim.Time_ns.t;  (** back-off cap *)
      refreeze_window : Platinum_sim.Time_ns.t;
          (** a refreeze within this of the last thaw doubles the page's t2 *)
    }

val install : ?mode:mode -> Coherent.t -> Platinum_sim.Engine.t -> unit
(** Arm the daemon (when the active policy uses one).  All daemon events
    are engine {e daemon events}: they never keep a finished simulation
    alive. *)
