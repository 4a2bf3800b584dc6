type t = {
  mutable aspace : int;  (* -1 = none *)
  mutable epoch : int;  (* bumped by every flush *)
}

let create () = { aspace = -1; epoch = 0 }
let active_aspace t = if t.aspace < 0 then None else Some t.aspace
let is_active t ~aspace = aspace >= 0 && t.aspace = aspace
let flush t = t.epoch <- t.epoch + 1

let activate t ~aspace =
  if t.aspace = aspace then false
  else begin
    flush t;
    t.aspace <- aspace;
    true
  end

let[@inline] holds t (e : Pmap.entry) = e.Pmap.loaded = t.epoch

let[@inline] load t (e : Pmap.entry) =
  if t.aspace < 0 then invalid_arg "Atc.load: no active address space";
  e.Pmap.loaded <- t.epoch
