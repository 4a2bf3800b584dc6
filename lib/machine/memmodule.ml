type t = {
  mutable busy_horizon : int;
  mutable busy_ns : int;
  mutable wait_ns : int;
  mutable nrequests : int;
}

let create () = { busy_horizon = 0; busy_ns = 0; wait_ns = 0; nrequests = 0 }

(* Out of line, so [acquire] stays small enough to inline. *)
let negative_service () = invalid_arg "Memmodule.acquire: negative service"

let[@inline] acquire t ~arrival ~service =
  if service < 0 then negative_service ();
  let start = Int.max arrival t.busy_horizon in
  t.busy_horizon <- start + service;
  t.busy_ns <- t.busy_ns + service;
  t.wait_ns <- t.wait_ns + (start - arrival);
  t.nrequests <- t.nrequests + 1;
  start

let busy_until t = t.busy_horizon

let reserve_until t horizon =
  if horizon > t.busy_horizon then begin
    t.busy_ns <- t.busy_ns + (horizon - t.busy_horizon);
    t.busy_horizon <- horizon
  end

let total_busy_ns t = t.busy_ns
let total_wait_ns t = t.wait_ns
let requests t = t.nrequests

let utilization t ~horizon =
  if horizon <= 0 then 0.0 else float_of_int t.busy_ns /. float_of_int horizon
