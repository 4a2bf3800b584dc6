module Coherent = Platinum_core.Coherent
module Cmap = Platinum_core.Cmap
module Rights = Platinum_core.Rights

exception Address_error of { aspace : int; vpage : int }

type binding = {
  vbase : int;  (* first virtual page *)
  bnpages : int;
  obj : Memobj.t;  (* bound from its first page *)
  rights : Rights.t;
}

type t = {
  coh : Coherent.t;
  cm : Cmap.t;
  mutable bindings : binding list;
  mutable next_free_page : int;
}

let create coh = { coh; cm = Coherent.new_aspace coh; bindings = []; next_free_page = 16 }

let id t = Cmap.aspace t.cm
let cmap t = t.cm
let page_words t = Coherent.page_words t.coh

let overlaps b ~at_page ~npages =
  at_page < b.vbase + b.bnpages && b.vbase < at_page + npages

let map t ~at_page ~obj ?npages ~rights () =
  let npages = match npages with Some n -> n | None -> Memobj.npages obj in
  if npages <= 0 then invalid_arg "Addr_space.map: empty range";
  if npages > Memobj.npages obj then
    invalid_arg "Addr_space.map: range outside object";
  if List.exists (fun b -> overlaps b ~at_page ~npages) t.bindings then
    invalid_arg (Printf.sprintf "Addr_space.map: virtual range [%d,%d) already bound" at_page (at_page + npages));
  t.bindings <- { vbase = at_page; bnpages = npages; obj; rights } :: t.bindings;
  if at_page + npages > t.next_free_page then t.next_free_page <- at_page + npages

let unmap t ~now ~at_page ~npages =
  let lat = ref 0 in
  for vpage = at_page to at_page + npages - 1 do
    lat := !lat + Coherent.unbind t.coh ~now:(now + !lat) t.cm ~vpage
  done;
  t.bindings <- List.filter (fun b -> not (overlaps b ~at_page ~npages)) t.bindings;
  !lat

let map_new_object t ~name ~npages ~rights =
  let obj = Memobj.create t.coh ~name ~npages in
  let base = t.next_free_page in
  map t ~at_page:base ~obj ~rights ();
  (obj, base)

let find_binding t ~vpage =
  List.find_opt (fun b -> vpage >= b.vbase && vpage < b.vbase + b.bnpages) t.bindings

let resolve t ~vpage =
  match find_binding t ~vpage with
  | None -> None
  | Some b -> Some (b.obj, vpage - b.vbase)

let fault t ~now:_ ~vpage =
  match find_binding t ~vpage with
  | None -> raise (Address_error { aspace = id t; vpage })
  | Some b ->
    let index = vpage - b.vbase in
    let page = Memobj.page b.obj ~index in
    Coherent.bind t.coh t.cm ~vpage page b.rights;
    let counters = Coherent.counters t.coh in
    counters.Platinum_core.Counters.vm_faults <-
      counters.Platinum_core.Counters.vm_faults + 1;
    (Coherent.config t.coh).Platinum_machine.Config.vm_fault_ns
