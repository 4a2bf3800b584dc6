(* Tests for the machine-independent VM layer: memory objects, address
   spaces, zones. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Rights = Platinum_core.Rights
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Cpage = Platinum_core.Cpage
module Memobj = Platinum_vm.Memobj
module Addr_space = Platinum_vm.Addr_space
module Zone = Platinum_vm.Zone

let mk_coh ?(nprocs = 4) ?(page_words = 8) () =
  let config = Config.butterfly_plus ~nprocs ~page_words () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
    ~frames_per_module:16 ()

(* --- Memobj --- *)

let test_memobj_lazy_pages () =
  let coh = mk_coh () in
  let obj = Memobj.create coh ~name:"data" ~npages:4 in
  Alcotest.(check int) "npages" 4 (Memobj.npages obj);
  Alcotest.(check bool) "no pages yet" true (Memobj.page_if_exists obj ~index:2 = None);
  let p = Memobj.page obj ~index:2 in
  Alcotest.(check bool) "created on demand" true (Memobj.page_if_exists obj ~index:2 = Some p);
  Alcotest.(check bool) "same page on re-request" true (Memobj.page obj ~index:2 == p);
  Alcotest.(check string) "labelled" "data[2]" p.Cpage.label

let test_memobj_bounds () =
  let coh = mk_coh () in
  let obj = Memobj.create coh ~name:"x" ~npages:2 in
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Memobj.page obj ~index:2);
       false
     with Invalid_argument _ -> true)

let test_memobj_iter () =
  let coh = mk_coh () in
  let obj = Memobj.create coh ~name:"x" ~npages:5 in
  ignore (Memobj.page obj ~index:1);
  ignore (Memobj.page obj ~index:3);
  let seen = ref [] in
  Memobj.iter_pages (fun i _ -> seen := i :: !seen) obj;
  Alcotest.(check (list int)) "only existing pages" [ 1; 3 ] (List.sort compare !seen)

(* --- Addr_space --- *)

let test_aspace_map_fault () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  let obj = Memobj.create coh ~name:"seg" ~npages:3 in
  Addr_space.map asp ~at_page:10 ~obj ~rights:Rights.Read_write ();
  (let resolved = Addr_space.resolve asp ~vpage:11 in
   Alcotest.(check bool) "resolve inside" true
     (match resolved with
     | Some (o, 1) -> Memobj.id o = Memobj.id obj
     | Some _ | None -> false));
  Alcotest.(check bool) "resolve outside" true (Addr_space.resolve asp ~vpage:13 = None);
  let lat = Addr_space.fault asp ~now:0 ~vpage:11 in
  Alcotest.(check bool) "fault charged" true (lat > 0);
  (* The binding is now live: a read through coherent memory works. *)
  let pw = Addr_space.page_words asp in
  let v, _ =
    Word.read coh ~now:0 ~proc:0 ~cmap:(Addr_space.cmap asp) ~vaddr:(11 * pw)
  in
  Alcotest.(check int) "zero-fill read" 0 v

let test_aspace_fault_unbound () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  Alcotest.(check bool) "address error" true
    (try
       ignore (Addr_space.fault asp ~now:0 ~vpage:999);
       false
     with Addr_space.Address_error { vpage = 999; _ } -> true)

let test_aspace_overlap_rejected () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  let a = Memobj.create coh ~name:"a" ~npages:4 in
  let b = Memobj.create coh ~name:"b" ~npages:4 in
  Addr_space.map asp ~at_page:0 ~obj:a ~rights:Rights.Read_write ();
  Alcotest.(check bool) "overlap rejected" true
    (try
       Addr_space.map asp ~at_page:3 ~obj:b ~rights:Rights.Read_write ();
       false
     with Invalid_argument _ -> true)

let test_aspace_partial_object_binding () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  let obj = Memobj.create coh ~name:"big" ~npages:10 in
  Addr_space.map asp ~at_page:4 ~obj ~npages:2 ~rights:Rights.Read_only ();
  Alcotest.(check bool) "bound from the object's first page" true
    (match Addr_space.resolve asp ~vpage:5 with
    | Some (o, 1) -> Memobj.id o = Memobj.id obj
    | Some _ | None -> false);
  Alcotest.(check bool) "only npages bound" true (Addr_space.resolve asp ~vpage:6 = None)

let test_aspace_unmap () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  let obj = Memobj.create coh ~name:"seg" ~npages:2 in
  Addr_space.map asp ~at_page:0 ~obj ~rights:Rights.Read_write ();
  ignore (Addr_space.fault asp ~now:0 ~vpage:0);
  let _ =
    Coherent.submit coh ~now:0 ~proc:0 ~cmap:(Addr_space.cmap asp)
      (Memtxn.Write { vaddr = 0; value = 7 })
  in
  ignore (Addr_space.unmap asp ~now:0 ~at_page:0 ~npages:2);
  Alcotest.(check bool) "unbound after unmap" true (Addr_space.resolve asp ~vpage:0 = None);
  (* Remapping the same object sees the same data: the object owns it. *)
  Addr_space.map asp ~at_page:5 ~obj ~rights:Rights.Read_write ();
  let pw = Addr_space.page_words asp in
  ignore (Addr_space.fault asp ~now:0 ~vpage:5);
  let v, _ = Word.read coh ~now:0 ~proc:0 ~cmap:(Addr_space.cmap asp) ~vaddr:(5 * pw) in
  Alcotest.(check int) "object data survives unmap" 7 v

let test_aspace_two_spaces_one_object () =
  let coh = mk_coh () in
  let asp1 = Addr_space.create coh in
  let asp2 = Addr_space.create coh in
  let obj = Memobj.create coh ~name:"shared" ~npages:1 in
  Addr_space.map asp1 ~at_page:0 ~obj ~rights:Rights.Read_write ();
  Addr_space.map asp2 ~at_page:7 ~obj ~rights:Rights.Read_only ();
  ignore (Addr_space.fault asp1 ~now:0 ~vpage:0);
  ignore (Addr_space.fault asp2 ~now:0 ~vpage:7);
  let _ =
    Coherent.submit coh ~now:0 ~proc:0 ~cmap:(Addr_space.cmap asp1)
      (Memtxn.Write { vaddr = 3; value = 55 })
  in
  let pw = Addr_space.page_words asp1 in
  let v, _ =
    Word.read coh ~now:1000 ~proc:1 ~cmap:(Addr_space.cmap asp2) ~vaddr:((7 * pw) + 3)
  in
  Alcotest.(check int) "same object through both spaces" 55 v

let test_map_new_object_no_overlap () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  let _, base1 = Addr_space.map_new_object asp ~name:"a" ~npages:3 ~rights:Rights.Read_write in
  let _, base2 = Addr_space.map_new_object asp ~name:"b" ~npages:3 ~rights:Rights.Read_write in
  Alcotest.(check bool) "disjoint ranges" true (abs (base2 - base1) >= 3)

(* --- Zone --- *)

let test_zone_alloc () =
  let coh = mk_coh () in
  let asp = Addr_space.create coh in
  let z = Zone.create asp ~name:"z" ~pages:2 () in
  let a = Zone.alloc z ~words:3 () in
  let b = Zone.alloc z ~words:3 () in
  Alcotest.(check int) "bump allocation" (a + 3) b;
  Alcotest.(check int) "used" 6 (Zone.used_words z)

let test_zone_page_aligned () =
  let coh = mk_coh ~page_words:8 () in
  let asp = Addr_space.create coh in
  let z = Zone.create asp ~name:"z" ~pages:4 () in
  ignore (Zone.alloc z ~words:3 ());
  let b = Zone.alloc z ~words:8 ~page_aligned:true () in
  Alcotest.(check int) "aligned" 0 (b mod 8);
  ignore (Zone.alloc z ~words:1 ());
  let c = Zone.alloc z ~words:8 ~page_aligned:true () in
  Alcotest.(check int) "next page boundary" (b + 16) c

let test_zone_exhaustion () =
  let coh = mk_coh ~page_words:8 () in
  let asp = Addr_space.create coh in
  let z = Zone.create asp ~name:"z" ~pages:1 () in
  ignore (Zone.alloc z ~words:8 ());
  Alcotest.(check bool) "exhausted" true
    (try
       ignore (Zone.alloc z ~words:1 ());
       false
     with Failure _ -> true)

let test_zones_disjoint () =
  let coh = mk_coh ~page_words:8 () in
  let asp = Addr_space.create coh in
  let z1 = Zone.create asp ~name:"data" ~pages:2 () in
  let z2 = Zone.create asp ~name:"sync" ~pages:2 () in
  let a = Zone.alloc z1 ~words:8 () in
  let b = Zone.alloc z2 ~words:8 () in
  Alcotest.(check bool) "different pages" true (a / 8 <> b / 8)

let suite =
  [
    ("memobj: lazy page creation", `Quick, test_memobj_lazy_pages);
    ("memobj: bounds", `Quick, test_memobj_bounds);
    ("memobj: iter existing", `Quick, test_memobj_iter);
    ("aspace: map and fault", `Quick, test_aspace_map_fault);
    ("aspace: fault on unbound address", `Quick, test_aspace_fault_unbound);
    ("aspace: overlapping bindings rejected", `Quick, test_aspace_overlap_rejected);
    ("aspace: partial object binding", `Quick, test_aspace_partial_object_binding);
    ("aspace: unmap and remap", `Quick, test_aspace_unmap);
    ("aspace: one object, two spaces", `Quick, test_aspace_two_spaces_one_object);
    ("aspace: fresh objects don't overlap", `Quick, test_map_new_object_no_overlap);
    ("zone: bump allocation", `Quick, test_zone_alloc);
    ("zone: page alignment", `Quick, test_zone_page_aligned);
    ("zone: exhaustion", `Quick, test_zone_exhaustion);
    ("zone: zones are disjoint", `Quick, test_zones_disjoint);
  ]
