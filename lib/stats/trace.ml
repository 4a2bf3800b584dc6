module Probe = Platinum_core.Probe
module Coherent = Platinum_core.Coherent
module Time_ns = Platinum_sim.Time_ns
module Ring = Platinum_sim.Ring

type entry = {
  at : Time_ns.t;
  event : Probe.event;
}

type t = entry Ring.t

let create () = Ring.create ~capacity:100_000

let record t ~now event = Ring.push t { at = now; event }
let attach t coh = Coherent.set_probe coh (Some (fun ~now ev -> record t ~now ev))
let entries = Ring.to_list
let length = Ring.length
let dropped t = Ring.pushed t - Ring.length t

(* The query paths stream over the ring buffer — a trace at capacity holds
   10^5 entries, and materializing an intermediate list per query was the
   stats layer's own hot-path tax. *)

let count t pred = Ring.fold t (fun n e -> if pred e.event then n + 1 else n) 0

let pp_timeline ?(limit = 50) fmt t =
  let n = length t in
  let nd = dropped t in
  Format.fprintf fmt "@[<v>protocol timeline (%d events%s):@," n
    (if nd > 0 then Printf.sprintf ", %d dropped" nd else "");
  ignore
    (Ring.fold t
       (fun i e ->
         if i < limit then
           Format.fprintf fmt "  %10s  %a@," (Time_ns.to_string e.at) Probe.pp_event e.event;
         i + 1)
       0);
  if n > limit then Format.fprintf fmt "  ... %d more@," (n - limit);
  Format.fprintf fmt "@]"
