(** Deterministic open-loop arrival processes for the serving workloads.

    An arrival process turns a seeded {!Rng} stream into a sequence of
    inter-arrival gaps (ns).  Open-loop means the gaps never depend on
    service times: the generator is consulted at each arrival and the next
    request is scheduled [gap] ns later whether or not the previous one
    has completed, so offered load is a pure function of [(seed, rate)]
    and overload really queues instead of self-throttling.

    Two shapes:
    - [Poisson]: exponential gaps at a fixed rate — the classic
      memoryless open-loop client population.
    - [Mmpp] (Markov-modulated Poisson): a two-state burst model that
      alternates exponentially-distributed dwell periods of low-rate and
      high-rate Poisson traffic — the bursty shape that separates tail
      latency from mean latency. *)

type process =
  | Poisson of { rate_rps : float }  (** requests per simulated second *)
  | Mmpp of {
      low_rps : float;
      high_rps : float;
      dwell_ns : int;  (** mean dwell time in each state *)
    }

type t

val create : rng:Rng.t -> process -> t
(** The generator consumes [rng] (and nothing else), so equal seeds give
    equal arrival schedules.  Rates must be positive, [dwell_ns > 0]. *)

val next_gap_ns : t -> int
(** The gap to the next arrival, always [>= 1] ns. *)

val mean_rps : process -> float
(** The long-run offered rate of the process (the MMPP spends half its
    time in each state). *)
