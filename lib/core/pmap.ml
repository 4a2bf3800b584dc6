type entry = {
  frame : Platinum_phys.Frame.t;
  cpage : Cpage.t;  (* the page the Cmap binds at this vpage *)
  mutable write_ok : bool;
  mutable loaded : int;  (* the ATC epoch that cached this entry; -1 = never *)
}

(* The index is a chunked vpage-indexed table of entry cells (see
   {!Flat}); the ATC is a stamp on the entry ({!Atc}), so the entry is
   the one copy of the translation. *)
type t = {
  pmap_proc : int;
  entries : entry Flat.t;
}

let create ~proc = { pmap_proc = proc; entries = Flat.create () }
let proc t = t.pmap_proc
let find t ~vpage = Flat.find t.entries vpage

let install t ~vpage ~frame ~cpage ~write_ok =
  let e = { frame; cpage; write_ok; loaded = -1 } in
  Flat.set t.entries vpage e;
  e

let remove t ~vpage = Flat.remove t.entries vpage

let restrict t ~vpage =
  match Flat.find t.entries vpage with
  | None -> ()
  | Some e -> e.write_ok <- false

(* Teardown: reset a processor's map wholesale (no in-library caller). *)
let clear t = Flat.clear t.entries

let size t = Flat.length t.entries
let iter f t = Flat.iter f t.entries
let mem t ~vpage = Flat.mem t.entries vpage

let write_ok t ~vpage =
  match Flat.find t.entries vpage with Some e -> e.write_ok | None -> false
