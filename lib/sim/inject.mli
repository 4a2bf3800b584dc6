(** Deterministic fault injection — the adversary the recovery paths are
    tested against.

    The paper assumes the Butterfly switch, the shootdown interrupts and
    the hardware block transfers never fail (§3.2–3.3); a real switch
    drops and delays messages.  An {!t} attached to a machine
    ({!Platinum_machine.Machine.set_inject}) makes the simulated hardware
    adversarial in four ways:

    - transient memory-module stalls and hard module outages, charged at
      the {!Platinum_machine.Xbar} serialization point;
    - lost and delayed inter-processor interrupts, recovered by the
      shootdown initiator's ack timeout + bounded exponential-backoff
      retry;
    - lost RPC request messages, recovered by client-side retransmission;
    - aborted kernel block transfers, retried by the fault handler and,
      past the retry bound, degraded by freezing the page in place (the
      paper's own escape hatch, §4.2).

    Every decision is drawn from one seeded splitmix64 stream in
    simulation order, so a run is replayable from [(seed, rate)] alone:
    two runs with equal parameters are bit-identical, and [rate = 0.0]
    never perturbs timing at all (every query answers "no fault" with no
    stream consumption).  The plane is per-machine — no global state — so
    domain-parallel sweeps can run injected cells concurrently.

    The adversary is bounded by construction: drops force delivery on the
    final retry and aborted transfers are capped per call site, so
    liveness is never at stake — only latency and the recovery paths. *)

type config = {
  seed : int64;
  rate : float;  (** per-opportunity fault probability; 0.0 disables *)
}

val config : ?seed:int64 -> ?rate:float -> unit -> config
(** [seed] defaults to [1L] and [rate] to [0.0].  The rest of the fault
    model is fixed: 20–200 µs stalls, 0.5–2 ms outages (10% of module
    faults), 60% of IPI faults are drops (the rest 10–100 µs delays),
    100 µs ack timeout with 4 retries, 200 µs RPC retransmission with 4
    retries, 3 block-transfer retries. *)

type t

val create : config -> t
(** A fresh plane; equal configs produce identical fault schedules. *)

(* --- fault draws (consume the stream; deterministic in call order) --- *)

val module_fault : t -> [ `None | `Stall of int | `Outage of int ]
(** Asked once per {!Platinum_machine.Xbar} module acquisition.  [`Stall n]
    adds [n] ns of service; [`Outage n] takes the module down for [n] ns
    (everything queued behind it waits). *)

val peek_module_fault : t -> bool
(** Whether the next {!module_fault} will inject — a peek at the next
    draw ({!Rng.peek_float}) that consumes nothing, touches no stats and
    allocates nothing.  The kernel's
    coalescing fast path asks this before completing a word inline: a
    pending fault forces the full-suspend path so the injected event (and
    its recovery) lands exactly where the seed schedule put it. *)

val ipi_fault : t -> attempt:int -> [ `Deliver | `Delay of int | `Drop ]
(** Asked once per shootdown IPI send attempt.  Never answers [`Drop] when
    [attempt] is the last one (the 4th retry): the adversary is
    bounded, so shootdowns always complete. *)

val rpc_drop : t -> attempt:int -> bool
(** Asked once per RPC request send; [true] = the message is lost.  Forced
    [false] on the final attempt. *)

val block_abort : t -> words:int -> int option
(** Asked once per kernel block transfer; [Some w] aborts the transfer
    after [w] of [words] words (the partial occupancy is still charged). *)

(* --- retry/backoff schedules --- *)

val ack_timeout : attempt:int -> int
(** Exponential backoff: [100 µs * 2^attempt]. *)

val rpc_retrans : attempt:int -> int
val max_copy_retries : int

(* --- recovery bookkeeping (recorded by the kernel paths) --- *)

val note_shootdown_retry : t -> unit
val note_rpc_retry : t -> unit
val note_copy_retry : t -> unit
val note_degraded_freeze : t -> unit
val note_recovery : t -> int -> unit
(** Record one recovery episode's extra latency (ns beyond the fault-free
    path) into the distribution reported by {!recovery_samples}. *)

type stats = {
  mutable stalls : int;
  mutable outages : int;
  mutable ipi_drops : int;
  mutable ipi_delays : int;
  mutable rpc_drops : int;
  mutable copy_aborts : int;
  mutable shootdown_retries : int;
  mutable rpc_retries : int;
  mutable copy_retries : int;
  mutable degraded_freezes : int;
}

val stats : t -> stats
val faults_injected : t -> int
(** Total faults the plane has injected (stalls + outages + drops + delays
    + aborts). *)

val retries : t -> int
(** Total recovery retries exercised (shootdown + rpc + block copy). *)

val recovery_samples : t -> int array
(** Extra-latency samples recorded via {!note_recovery}, in order. *)

val fingerprint : t -> string
(** One line over every counter — what the differential tests compare. *)
