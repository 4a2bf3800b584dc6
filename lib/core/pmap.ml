type entry = {
  frame : Platinum_phys.Frame.t;
  cpage : Cpage.t;  (* the page the Cmap binds at this vpage *)
  mutable write_ok : bool;
  mutable loaded : int;  (* the ATC epoch that cached this entry; -1 = never *)
}

(* The map is a chunked vpage-indexed table of entry cells (see
   {!Flat}); the ATC is a stamp on the entry ({!Atc}), so the entry is
   the one copy of the translation. *)
type t = entry Flat.t

let create () = Flat.create ()
let find t ~vpage = Flat.find t vpage

let install t ~vpage ~frame ~cpage ~write_ok =
  let e = { frame; cpage; write_ok; loaded = -1 } in
  Flat.set t vpage e;
  e

let remove t ~vpage = Flat.remove t vpage

let restrict t ~vpage =
  match Flat.find t vpage with
  | None -> ()
  | Some e -> e.write_ok <- false

let size = Flat.length
let iter = Flat.iter
let mem t ~vpage = Flat.mem t vpage

let write_ok t ~vpage =
  match Flat.find t vpage with Some e -> e.write_ok | None -> false
