module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Cmap = Platinum_core.Cmap
module Rights = Platinum_core.Rights
module Addr_space = Platinum_vm.Addr_space
module Memobj = Platinum_vm.Memobj
module Zone = Platinum_vm.Zone
module Xbar = Platinum_machine.Xbar
module Machine = Platinum_machine.Machine

(* One user address space as the kernel sees it. *)
type space = {
  asp : Addr_space.t;
  cm : Cmap.t;
}

type t = {
  coh : Coherent.t;
  default_zone_pages : int;
  mutable spaces : space array;  (* index = the Memsys aspace id *)
  mutable zones : Zone.t array;
  mutable segments : Memobj.t array;  (* globally named objects *)
}

let space t aspace =
  if aspace < 0 || aspace >= Array.length t.spaces then
    invalid_arg (Printf.sprintf "Platsys: no address space %d" aspace);
  t.spaces.(aspace)

let aspace t = (space t 0).asp
let coherent t = t.coh

let zone t i =
  if i < 0 || i >= Array.length t.zones then invalid_arg (Printf.sprintf "Platsys: no zone %d" i);
  t.zones.(i)

let new_zone t ~aspace:a ~name ~pages =
  let z = Zone.create (space t a).asp ~name ~pages () in
  t.zones <- Array.append t.zones [| z |];
  Array.length t.zones - 1

let new_aspace t =
  let asp = Addr_space.create t.coh in
  let sp = { asp; cm = Addr_space.cmap asp } in
  t.spaces <- Array.append t.spaces [| sp |];
  let id = Array.length t.spaces - 1 in
  (* Each space gets a private heap zone; its handle is returned by the
     space's own Api.new_zone calls — the creation here just guarantees
     allocation works immediately.  Its handle is the current zone count. *)
  ignore (new_zone t ~aspace:id ~name:(Printf.sprintf "heap@%d" id) ~pages:t.default_zone_pages);
  id

let heap_zone_of_aspace t a =
  (* The private heap created with the space; for space 0 it is zone 0. *)
  if a = 0 then 0
  else begin
    (* zones were appended in creation order; find the heap@a zone *)
    let found = ref (-1) in
    Array.iteri
      (fun i z -> if Zone.name z = Printf.sprintf "heap@%d" a then found := i)
      t.zones;
    !found
  end

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
   each at the time the VM work reaches it.  Memtxn.iter_pages walks pages
   in chunk order with consecutive duplicates elided, which for a
   contiguous block is exactly the old first..last page loop.  A word
   transaction has one page, bound directly: no closure, ref or chunk
   record on the trapped word path. *)
let ensure_txn t sp ~now txn =
  let pw = Coherent.page_words t.coh in
  match txn with
  | Memtxn.Read { vaddr } | Write { vaddr; _ } | Rmw { vaddr; _ } ->
    ensure_bound t sp ~now ~vpage:(vaddr / pw)
  | _ ->
    let lat = ref 0 in
    Memtxn.iter_pages ~page_words:pw txn (fun vpage ->
        lat := !lat + ensure_bound t sp ~now:(now + !lat) ~vpage);
    !lat

let memsys t =
  let coh = t.coh in
  let pw = Coherent.page_words coh in
  let submit ~now ~proc ~aspace txn =
    let sp = space t aspace in
    Memtxn.validate txn;
    let l0 = ensure_txn t sp ~now txn in
    if l0 = 0 then Coherent.submit coh ~now ~proc ~cmap:sp.cm txn
    else
      let result, l = Coherent.submit coh ~now:(now + l0) ~proc ~cmap:sp.cm txn in
      (result, l0 + l)
  in
  let advise ~now ~proc ~aspace ~vaddr ~len advice =
    let sp = space t aspace in
    let translated =
      match advice with
      | Memsys.Freeze -> Coherent.Advise_freeze
      | Memsys.Thaw -> Coherent.Advise_thaw
      | Memsys.Home m -> Coherent.Advise_home m
    in
    let len = max len 1 in
    let first = vaddr / pw and last = (vaddr + len - 1) / pw in
    let lat = ref 0 in
    for vpage = first to last do
      lat := !lat + ensure_bound t sp ~now:(now + !lat) ~vpage;
      lat := !lat + Coherent.advise coh ~now:(now + !lat) ~proc ~cmap:sp.cm ~vpage translated
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
  (* The coalescing fast-path ops (DESIGN.md §4g): page eligibility and
     epoch come from the coherent layer, the injection gate from the
     machine's fault plane.  [fp_probe] never raises — an out-of-range
     aspace just declines. *)
  let mach = Coherent.machine coh in
  let fastpath =
    Some
      {
        Fastpath.fp_epoch = (fun () -> Coherent.fp_epoch coh);
        fp_page_words = pw;
        fp_page_shift =
          (if pw > 0 && pw land (pw - 1) = 0 then
             let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
             log2 pw 0
           else -1);
        fp_probe =
          (fun ~proc ~aspace ~vpage ~write ->
            if aspace < 0 || aspace >= Array.length t.spaces then None
            else
              let sp = t.spaces.(aspace) in
              if Coherent.fp_page_ok coh ~proc ~cmap:sp.cm ~vpage ~write then Some sp.cm
              else None);
        fp_inject_live =
          (fun () ->
            match Machine.inject mach with
            | None -> false
            | Some inj -> Platinum_sim.Inject.rate inj > 0.0);
        fp_ok_now =
          (fun () ->
            match Machine.inject mach with
            | None -> true
            | Some inj -> not (Platinum_sim.Inject.peek_module_fault inj));
        fp_read =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ->
            Coherent.fp_read coh ~now ~proc ~cmap ~vpage ~vaddr);
        fp_write =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ~value ->
            Coherent.fp_write coh ~now ~proc ~cmap ~vpage ~vaddr value);
        fp_rmw =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ~f ->
            Coherent.fp_rmw coh ~now ~proc ~cmap ~vpage ~vaddr f);
        fp_value = Coherent.fp_value_cell coh;
      }
  in
  {
    Memsys.page_words = pw;
    submit;
    new_aspace = (fun () -> new_aspace t);
    new_zone = (fun ~aspace ~name ~pages -> new_zone t ~aspace ~name ~pages);
    alloc =
      (fun ~zone:z ~words ~page_aligned -> Zone.alloc (zone t z) ~words ~page_aligned ());
    alloc_pages = (fun ~zone:z ~pages -> Zone.alloc_pages (zone t z) ~pages);
    new_segment = (fun ~name ~pages -> new_segment t ~name ~pages);
    map_segment = (fun ~aspace ~segment -> map_segment t ~aspace ~segment);
    advise;
    migrate_cost;
    describe =
      (fun () ->
        Printf.sprintf "platinum coherent memory (policy %s)"
          (Coherent.policy coh).Platinum_core.Policy.name);
    fastpath;
    remote = None;
  }

let create coh root_aspace ?(default_zone_pages = 4096) () =
  let sp = { asp = root_aspace; cm = Addr_space.cmap root_aspace } in
  let t = { coh; default_zone_pages; spaces = [| sp |]; zones = [||]; segments = [||] } in
  (* Zone 0: the root space's default heap. *)
  ignore (new_zone t ~aspace:0 ~name:"heap" ~pages:default_zone_pages);
  t
