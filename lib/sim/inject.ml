(* All randomness flows through one seeded stream consumed in simulation
   order; since the simulation itself is deterministic, the whole fault
   schedule is a pure function of (seed, rate).  A zero rate answers every
   query without touching the stream, so an attached-but-idle plane cannot
   perturb anything. *)

type config = { seed : int64; rate : float }

let config ?(seed = 1L) ?(rate = 0.0) () = { seed; rate }

(* The fault model.  Every run draws from these; only the seed and the
   rate vary. *)
let hard_ratio = 0.1 (* share of module faults that are hard outages *)
let stall_ns = (20_000, 200_000) (* transient module stall, inclusive range *)
let outage_ns = (500_000, 2_000_000) (* hard module outage, inclusive range *)
let ipi_drop_ratio = 0.6 (* share of IPI faults that are drops (rest delay) *)
let ipi_delay_ns = (10_000, 100_000)
let ack_timeout_ns = 100_000 (* initial shootdown ack timeout; doubles per retry *)
let max_ipi_retries = 4 (* delivery is forced on the final attempt *)
let rpc_retrans_ns = 200_000 (* initial RPC retransmission timeout; doubles *)
let max_rpc_retries = 4
let max_copy_retries = 3 (* block-transfer retries before freeze-in-place *)

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

type t = {
  cfg : config;
  rng : Rng.t;
  st : stats;
  mutable samples : int array;
  mutable nsamples : int;
}

let create cfg =
  if cfg.rate < 0.0 || cfg.rate > 1.0 then invalid_arg "Inject.create: rate must be in [0, 1]";
  {
    cfg;
    rng = Rng.create cfg.seed;
    st =
      {
        stalls = 0;
        outages = 0;
        ipi_drops = 0;
        ipi_delays = 0;
        rpc_drops = 0;
        copy_aborts = 0;
        shootdown_retries = 0;
        rpc_retries = 0;
        copy_retries = 0;
        degraded_freezes = 0;
      };
    samples = Array.make 64 0;
    nsamples = 0;
  }

let rate t = t.cfg.rate
let seed t = t.cfg.seed
let stats t = t.st

let hit t = t.cfg.rate > 0.0 && Rng.float t.rng 1.0 < t.cfg.rate
let draw t (lo, hi) = Rng.int_in t.rng lo hi

(* Replays the next rate draw on a copy of the stream: tells whether the
   next [module_fault] will inject, without consuming anything or touching
   stats.  Rate 0 short-circuits (no allocation, no copy). *)
let peek_module_fault t =
  t.cfg.rate > 0.0 && Rng.float (Rng.copy t.rng) 1.0 < t.cfg.rate

let module_fault t =
  if not (hit t) then `None
  else if Rng.float t.rng 1.0 < hard_ratio then begin
    t.st.outages <- t.st.outages + 1;
    `Outage (draw t outage_ns)
  end
  else begin
    t.st.stalls <- t.st.stalls + 1;
    `Stall (draw t stall_ns)
  end

let ipi_fault t ~attempt =
  if not (hit t) then `Deliver
  else if Rng.float t.rng 1.0 < ipi_drop_ratio then
    if attempt >= max_ipi_retries then `Deliver  (* bounded adversary *)
    else begin
      t.st.ipi_drops <- t.st.ipi_drops + 1;
      `Drop
    end
  else begin
    t.st.ipi_delays <- t.st.ipi_delays + 1;
    `Delay (draw t ipi_delay_ns)
  end

let rpc_drop t ~attempt =
  if attempt >= max_rpc_retries then false
  else if hit t then begin
    t.st.rpc_drops <- t.st.rpc_drops + 1;
    true
  end
  else false

let block_abort t ~words =
  if words <= 1 || not (hit t) then None
  else begin
    t.st.copy_aborts <- t.st.copy_aborts + 1;
    Some (Rng.int_in t.rng 1 (words - 1))
  end

(* Backoff doubles per retry; shifts are safe for the attempt counts the
   retry bounds allow. *)
let ack_timeout ~attempt = ack_timeout_ns lsl Int.min attempt 20
let rpc_retrans ~attempt = rpc_retrans_ns lsl Int.min attempt 20

let note_shootdown_retry t = t.st.shootdown_retries <- t.st.shootdown_retries + 1
let note_rpc_retry t = t.st.rpc_retries <- t.st.rpc_retries + 1
let note_copy_retry t = t.st.copy_retries <- t.st.copy_retries + 1
let note_degraded_freeze t = t.st.degraded_freezes <- t.st.degraded_freezes + 1

let note_recovery t ns =
  if t.nsamples = Array.length t.samples then begin
    let bigger = Array.make (2 * t.nsamples) 0 in
    Array.blit t.samples 0 bigger 0 t.nsamples;
    t.samples <- bigger
  end;
  t.samples.(t.nsamples) <- ns;
  t.nsamples <- t.nsamples + 1

let recovery_samples t = Array.sub t.samples 0 t.nsamples

let faults_injected t =
  t.st.stalls + t.st.outages + t.st.ipi_drops + t.st.ipi_delays + t.st.rpc_drops
  + t.st.copy_aborts

let retries t = t.st.shootdown_retries + t.st.rpc_retries + t.st.copy_retries

let fingerprint t =
  Printf.sprintf
    "stall=%d outage=%d ipi_drop=%d ipi_delay=%d rpc_drop=%d abort=%d sd_retry=%d \
     rpc_retry=%d copy_retry=%d freeze_degrade=%d recov=%d"
    t.st.stalls t.st.outages t.st.ipi_drops t.st.ipi_delays t.st.rpc_drops t.st.copy_aborts
    t.st.shootdown_retries t.st.rpc_retries t.st.copy_retries t.st.degraded_freezes t.nsamples
