type process =
  | Poisson of { rate_rps : float }
  | Mmpp of { low_rps : float; high_rps : float; dwell_ns : int }

type t = {
  rng : Rng.t;
  process : process;
  mutable high : bool;  (* MMPP burst state *)
  mutable dwell_left_ns : int;  (* simulated ns left in the current state *)
}

let validate = function
  | Poisson { rate_rps } ->
    if rate_rps <= 0.0 then invalid_arg "Arrivals.create: rate_rps must be positive"
  | Mmpp { low_rps; high_rps; dwell_ns } ->
    if low_rps <= 0.0 || high_rps <= 0.0 then
      invalid_arg "Arrivals.create: MMPP rates must be positive";
    if dwell_ns <= 0 then invalid_arg "Arrivals.create: dwell_ns must be positive"

let create ~rng process =
  validate process;
  { rng; process; high = false; dwell_left_ns = 0 }

(* One exponential draw with the given mean, floored at 1 ns.  1 - U keeps
   the argument of [log] in (0, 1]. *)
let exp_draw rng ~mean_ns =
  let u = Rng.float rng 1.0 in
  let g = -.log (1.0 -. u) *. mean_ns in
  if g < 1.0 then 1 else int_of_float g

let next_gap_ns t =
  match t.process with
  | Poisson { rate_rps } -> exp_draw t.rng ~mean_ns:(1e9 /. rate_rps)
  | Mmpp { low_rps; high_rps; dwell_ns } ->
    if t.dwell_left_ns <= 0 then begin
      (* Entering a fresh dwell period; the state flips each time, so the
         process spends half its time (in expectation) in each regime. *)
      t.high <- not t.high;
      t.dwell_left_ns <- exp_draw t.rng ~mean_ns:(float_of_int dwell_ns)
    end;
    let rate = if t.high then high_rps else low_rps in
    let gap = exp_draw t.rng ~mean_ns:(1e9 /. rate) in
    t.dwell_left_ns <- t.dwell_left_ns - gap;
    gap

let mean_rps = function
  | Poisson { rate_rps } -> rate_rps
  | Mmpp { low_rps; high_rps; _ } -> 0.5 *. (low_rps +. high_rps)
