type t = {
  atc_proc : int;
  mutable aspace : int;  (* -1 = none *)
  entries : Pmap.entry Flat.t;
}

let create ~proc = { atc_proc = proc; aspace = -1; entries = Flat.create () }
let proc t = t.atc_proc
let active_aspace t = if t.aspace < 0 then None else Some t.aspace
let is_active t ~aspace = aspace >= 0 && t.aspace = aspace
let flush t = Flat.clear t.entries

let activate t ~aspace =
  if t.aspace = aspace then false
  else begin
    flush t;
    t.aspace <- aspace;
    true
  end

(* Returns the stored option cell — a hit never allocates. *)
let[@inline] find t ~aspace ~vpage = if t.aspace <> aspace then None else Flat.find t.entries vpage

let load t ~vpage entry =
  if t.aspace < 0 then invalid_arg "Atc.load: no active address space";
  Flat.set t.entries vpage entry

let invalidate t ~aspace ~vpage = if t.aspace = aspace then Flat.remove t.entries vpage
let size t = Flat.length t.entries
let iter f t = Flat.iter f t.entries
