module Coherent = Platinum_core.Coherent
module Cpage = Platinum_core.Cpage

type t = {
  obj_id : int;
  obj_name : string;
  pages : Cpage.t option array;
  coh : Coherent.t;
}

(* Atomic: memory objects may be created from concurrent sweep domains
   (Runner.Par); the id only needs to be unique, not dense, so a plain
   fetch-and-add is enough and keeps each domain's simulation race-free. *)
let next_id = Atomic.make 0

let create coh ~name ~npages =
  if npages <= 0 then invalid_arg "Memobj.create: npages must be positive";
  let id = Atomic.fetch_and_add next_id 1 in
  { obj_id = id; obj_name = name; pages = Array.make npages None; coh }

let id t = t.obj_id
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

let page_if_exists t ~index =
  if index < 0 || index >= Array.length t.pages then None else t.pages.(index)

let iter_pages f t =
  Array.iteri
    (fun i -> function
      | Some p -> f i p
      | None -> ())
    t.pages
