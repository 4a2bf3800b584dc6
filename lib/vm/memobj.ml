module Coherent = Platinum_core.Coherent
module Cpage = Platinum_core.Cpage

type t = {
  obj_name : string;
  pages : Cpage.t option array;
  coh : Coherent.t;
}

let create coh ~name ~npages =
  if npages <= 0 then invalid_arg "Memobj.create: npages must be positive";
  { obj_name = name; pages = Array.make npages None; coh }

let npages t = Array.length t.pages

let page t ~index =
  if index < 0 || index >= Array.length t.pages then
    invalid_arg (Printf.sprintf "Memobj.page: index %d out of range for %s" index t.obj_name);
  match t.pages.(index) with
  | Some p -> p
  | None ->
    let label = Printf.sprintf "%s[%d]" t.obj_name index in
    let p = Coherent.new_cpage t.coh ~label () in
    t.pages.(index) <- Some p;
    p
