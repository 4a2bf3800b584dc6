module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Cmap = Platinum_core.Cmap
module Rights = Platinum_core.Rights
module Addr_space = Platinum_vm.Addr_space
module Memobj = Platinum_vm.Memobj
module Zone = Platinum_vm.Zone
module Xbar = Platinum_machine.Xbar
module Machine = Platinum_machine.Machine
module Phys_mem = Platinum_phys.Phys_mem

(* One user address space as the kernel sees it. *)
type space = {
  asp : Addr_space.t;
  cm : Cmap.t;
  some_cm : Cmap.t option;  (* [Some cm], built once for the coalescer's arm *)
}

let space_of asp =
  let cm = Addr_space.cmap asp in
  { asp; cm; some_cm = Some cm }

(* Pages in each space's heap zone. *)
let default_zone_pages = 4096

type t = {
  coh : Coherent.t;
  mutable spaces : space array;  (* index = the Memsys aspace id *)
  mutable zones : Zone.t array;
  mutable segments : Memobj.t array;  (* globally named objects *)
  cursor : Memtxn.chunk;  (* the binding loop's *)
  shift : int;  (* {!Phys_mem.page_shift} of the page size *)
}

let space t aspace =
  if aspace < 0 || aspace >= Array.length t.spaces then
    invalid_arg (Printf.sprintf "Platsys: no address space %d" aspace);
  t.spaces.(aspace)

let zone t i =
  if i < 0 || i >= Array.length t.zones then invalid_arg (Printf.sprintf "Platsys: no zone %d" i);
  t.zones.(i)

let new_zone t ~aspace:a ~name ~pages =
  let z = Zone.create (space t a).asp ~name ~pages () in
  t.zones <- Array.append t.zones [| z |];
  Array.length t.zones - 1

let new_aspace t =
  let asp = Addr_space.create t.coh in
  let sp = space_of asp in
  t.spaces <- Array.append t.spaces [| sp |];
  let id = Array.length t.spaces - 1 in
  (* Each space gets a private heap zone; its handle is returned by the
     space's own Api.new_zone calls — the creation here just guarantees
     allocation works immediately.  Its handle is the current zone count. *)
  ignore (new_zone t ~aspace:id ~name:(Printf.sprintf "heap@%d" id) ~pages:default_zone_pages);
  id

let new_segment t ~name ~pages =
  let obj = Memobj.create t.coh ~name ~npages:pages in
  t.segments <- Array.append t.segments [| obj |];
  Array.length t.segments - 1

(* Bind an existing object at the space's next free page-aligned range.
   [Addr_space.map] rejects overlaps, so probe forward from a base. *)
let map_segment t ~aspace:a ~segment =
  if segment < 0 || segment >= Array.length t.segments then
    invalid_arg (Printf.sprintf "Platsys: no segment %d" segment);
  let obj = t.segments.(segment) in
  let sp = space t a in
  let npages = Memobj.npages obj in
  let rec find_base candidate =
    match Addr_space.map sp.asp ~at_page:candidate ~obj ~rights:Rights.Read_write () with
    | () -> candidate
    | exception Invalid_argument _ -> find_base (candidate + npages + 1)
  in
  let base_page = find_base 16 in
  base_page * Coherent.page_words t.coh

(* Resolve VM faults before entering the coherent layer, so Fault.Unmapped
   never escapes into a partially-charged operation. *)
let ensure_bound _t sp ~now ~vpage =
  match Cmap.find sp.cm ~vpage with
  | Some _ -> 0
  | None -> Addr_space.fault sp.asp ~now ~vpage

(* Bind every page a transaction touches before the coherent layer runs,
   each at the time the VM work reaches it: one [ensure_bound] per page in
   chunk order, consecutive duplicates elided, which for a contiguous block
   is exactly a first..last page loop.  [last] starts at [min_int], a page
   no chunk lies in. *)
let rec bind_loop t sp (c : Memtxn.chunk) ~now ~pw ~last lat =
  let vpage = Phys_mem.vpage ~shift:t.shift ~page_words:pw c.Memtxn.c_vaddr in
  let lat = if vpage <> last then lat + ensure_bound t sp ~now:(now + lat) ~vpage else lat in
  if Memtxn.next c then bind_loop t sp c ~now ~pw ~last:vpage lat else lat

(* A word transaction has one page, bound directly. *)
let ensure_txn t sp ~now txn =
  let pw = Coherent.page_words t.coh in
  match txn with
  | Memtxn.Read { vaddr } | Write { vaddr; _ } | Rmw { vaddr; _ } ->
    ensure_bound t sp ~now ~vpage:(Phys_mem.vpage ~shift:t.shift ~page_words:pw vaddr)
  | _ ->
    if Memtxn.first t.cursor ~page_words:pw txn then
      bind_loop t sp t.cursor ~now ~pw ~last:min_int 0
    else 0

let memsys t =
  let coh = t.coh in
  let pw = Coherent.page_words coh in
  let submit ~now ~proc ~aspace txn =
    let sp = space t aspace in
    Memtxn.validate txn;
    let l0 = ensure_txn t sp ~now txn in
    l0 + Coherent.submit coh ~now:(now + l0) ~proc ~cmap:sp.cm txn
  in
  let advise ~now ~proc ~aspace ~vaddr ~len advice =
    let sp = space t aspace in
    let len = Int.max len 1 in
    let first = vaddr / pw and last = (vaddr + len - 1) / pw in
    let lat = ref 0 in
    for vpage = first to last do
      lat := !lat + ensure_bound t sp ~now:(now + !lat) ~vpage;
      lat := !lat + Coherent.advise coh ~now:(now + !lat) ~proc ~cmap:sp.cm ~vpage advice
    done;
    !lat
  in
  let migrate_cost ~now ~from_proc ~to_proc =
    (* Moving the thread moves its kernel stack with a block transfer
       (§2.2's circular-dependence fix). *)
    Xbar.block_copy (Coherent.config coh)
      (Machine.modules (Coherent.machine coh))
      ~now ~src:from_proc ~dst:to_proc ~words:pw
  in
  (* The coalescing fast-path ops (DESIGN.md §4g): the hit cores come
     from the coherent layer.  [fp_cmap] never raises — an out-of-range
     aspace just declines. *)
  let fastpath =
    Some
      {
        Fastpath.fp_page_words = pw;
        fp_cmap =
          (fun ~aspace ->
            if aspace < 0 || aspace >= Array.length t.spaces then None
            else t.spaces.(aspace).some_cm);
        fp_read =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ->
            Coherent.fp_read coh ~now ~proc ~cmap ~vpage ~vaddr);
        fp_write =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ~value ->
            Coherent.fp_write coh ~now ~proc ~cmap ~vpage ~vaddr value);
        fp_rmw =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ~f ->
            Coherent.fp_rmw coh ~now ~proc ~cmap ~vpage ~vaddr f);
      }
  in
  {
    Memsys.page_words = pw;
    submit;
    value = Coherent.fp_value_cell coh;
    new_aspace = (fun () -> new_aspace t);
    new_zone = (fun ~aspace ~name ~pages -> new_zone t ~aspace ~name ~pages);
    alloc =
      (fun ~zone:z ~words ~page_aligned -> Zone.alloc (zone t z) ~words ~page_aligned ());
    new_segment = (fun ~name ~pages -> new_segment t ~name ~pages);
    map_segment = (fun ~aspace ~segment -> map_segment t ~aspace ~segment);
    advise;
    migrate_cost;
    fastpath;
    remote = None;
  }

let create coh root_aspace =
  let sp = space_of root_aspace in
  let t =
    {
      coh;
      spaces = [| sp |];
      zones = [||];
      segments = [||];
      cursor = Memtxn.make_chunk ();
      shift = Phys_mem.page_shift (Coherent.page_words coh);
    }
  in
  (* Zone 0: the root space's default heap. *)
  ignore (new_zone t ~aspace:0 ~name:"heap" ~pages:default_zone_pages);
  t
