(* Tests for physical memory: frames, inverted page tables, allocation. *)

module Frame = Platinum_phys.Frame
module IT = Platinum_phys.Inverted_table
module Phys_mem = Platinum_phys.Phys_mem

let qtest = QCheck_alcotest.to_alcotest

(* --- Frame --- *)

let test_frame_data () =
  let f = Frame.create ~mem_module:2 ~index:7 ~words:16 in
  Alcotest.(check int) "module" 2 (Frame.mem_module f);
  Alcotest.(check int) "index" 7 (Frame.index f);
  Alcotest.(check int) "words" 16 (Frame.words f);
  Frame.set f 3 99;
  Alcotest.(check int) "set/get" 99 (Frame.get f 3);
  Alcotest.(check int) "others zero" 0 (Frame.get f 4)

let test_frame_blit () =
  let a = Frame.create ~mem_module:0 ~index:0 ~words:8 in
  let b = Frame.create ~mem_module:1 ~index:0 ~words:8 in
  for i = 0 to 7 do
    Frame.set a i (i * i)
  done;
  Frame.blit_from ~src:a ~dst:b;
  Alcotest.(check bool) "equal after blit" true (Frame.equal_data a b);
  Frame.set b 0 42;
  Alcotest.(check bool) "diverges after write" false (Frame.equal_data a b)

let test_frame_blit_size_mismatch () =
  let a = Frame.create ~mem_module:0 ~index:0 ~words:8 in
  let b = Frame.create ~mem_module:0 ~index:1 ~words:16 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Frame.blit_from: size mismatch") (fun () ->
      Frame.blit_from ~src:a ~dst:b)

let test_frame_owner () =
  let f = Frame.create ~mem_module:0 ~index:0 ~words:4 in
  Alcotest.(check bool) "free initially" true (Frame.owner f = None);
  Frame.set_owner f (Some 12);
  Alcotest.(check bool) "owned" true (Frame.owner f = Some 12);
  Frame.set_owner f None;
  Alcotest.(check bool) "freed" true (Frame.owner f = None)

let test_frame_zero_fill () =
  let f = Frame.create ~mem_module:0 ~index:0 ~words:4 in
  Frame.set f 2 7;
  Frame.fill_zero f;
  Alcotest.(check int) "zeroed" 0 (Frame.get f 2)

(* --- Inverted_table --- *)

let test_it_alloc_lookup () =
  let t = IT.create ~mem_module:1 ~frames:8 ~page_words:4 in
  Alcotest.(check int) "capacity" 8 (IT.capacity t);
  Alcotest.(check int) "all free" 8 (IT.free_count t);
  let f = Option.get (IT.alloc t ~cpage:42) in
  Alcotest.(check bool) "lookup finds it" true (IT.lookup t ~cpage:42 = Some f);
  Alcotest.(check bool) "lookup miss" true (IT.lookup t ~cpage:43 = None);
  Alcotest.(check int) "free count" 7 (IT.free_count t);
  Alcotest.(check int) "used count" 1 (IT.used_count t)

let test_it_double_alloc_rejected () =
  let t = IT.create ~mem_module:0 ~frames:4 ~page_words:4 in
  ignore (IT.alloc t ~cpage:1);
  Alcotest.(check bool) "second alloc for same cpage raises" true
    (try
       ignore (IT.alloc t ~cpage:1);
       false
     with Invalid_argument _ -> true)

let test_it_exhaustion () =
  let t = IT.create ~mem_module:0 ~frames:3 ~page_words:4 in
  for c = 0 to 2 do
    Alcotest.(check bool) "alloc ok" true (IT.alloc t ~cpage:c <> None)
  done;
  Alcotest.(check bool) "exhausted" true (IT.alloc t ~cpage:99 = None)

let test_it_free_reuse () =
  let t = IT.create ~mem_module:0 ~frames:2 ~page_words:4 in
  let f1 = Option.get (IT.alloc t ~cpage:1) in
  ignore (IT.alloc t ~cpage:2);
  IT.free t f1;
  Alcotest.(check bool) "lookup gone" true (IT.lookup t ~cpage:1 = None);
  Alcotest.(check bool) "can alloc again" true (IT.alloc t ~cpage:3 <> None);
  Alcotest.(check bool) "full again" true (IT.alloc t ~cpage:4 = None)

let test_it_free_wrong_module () =
  let t = IT.create ~mem_module:0 ~frames:2 ~page_words:4 in
  let foreign = Frame.create ~mem_module:5 ~index:0 ~words:4 in
  Alcotest.check_raises "wrong module"
    (Invalid_argument "Inverted_table.free: frame belongs to another module") (fun () ->
      IT.free t foreign)

let test_it_double_free () =
  let t = IT.create ~mem_module:0 ~frames:2 ~page_words:4 in
  let f = Option.get (IT.alloc t ~cpage:1) in
  IT.free t f;
  Alcotest.check_raises "double free" (Invalid_argument "Inverted_table.free: frame is already free")
    (fun () -> IT.free t f)

(* Random alloc/free sequences keep the table consistent with a model. *)
let prop_it_model =
  QCheck.Test.make ~name:"inverted table agrees with a model" ~count:100
    QCheck.(list (pair bool (int_bound 20)))
    (fun ops ->
      let t = IT.create ~mem_module:0 ~frames:8 ~page_words:2 in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun (is_alloc, cpage) ->
          if is_alloc && not (Hashtbl.mem model cpage) then (
            match IT.alloc t ~cpage with
            | Some f ->
              Hashtbl.replace model cpage f;
              IT.lookup t ~cpage = Some f
            | None -> Hashtbl.length model = 8)
          else if (not is_alloc) && Hashtbl.mem model cpage then (
            let f = Hashtbl.find model cpage in
            IT.free t f;
            Hashtbl.remove model cpage;
            IT.lookup t ~cpage = None)
          else true)
        ops
      && IT.used_count t = Hashtbl.length model)

(* The lazily built table against the eager one it replaced: a free list
   that starts as [0; 1; ...] and takes freed frames back on its head.
   Over random alloc/free/lookup sequences both must hand out the same
   frame indices in the same order, agree on every lookup and count, and a
   re-allocated index must be the very same [Frame.t] (physical identity,
   stale data kept). *)
type eager = {
  mutable e_free : int list;
  e_owner : (int, int) Hashtbl.t;  (* cpage -> frame index *)
}

let eager_create frames = { e_free = List.init frames Fun.id; e_owner = Hashtbl.create 8 }

let eager_alloc e ~cpage =
  match e.e_free with
  | [] -> None
  | i :: rest ->
    e.e_free <- rest;
    Hashtbl.replace e.e_owner cpage i;
    Some i

let eager_free e ~cpage =
  let i = Hashtbl.find e.e_owner cpage in
  Hashtbl.remove e.e_owner cpage;
  e.e_free <- i :: e.e_free

let prop_it_lazy_eq_eager =
  QCheck.Test.make ~name:"inverted table: lazy build = eager model" ~count:200
    QCheck.(pair (int_range 1 12) (list (pair (int_bound 2) (int_bound 15))))
    (fun (frames, ops) ->
      let t = IT.create ~mem_module:3 ~frames ~page_words:2 in
      let e = eager_create frames in
      let seen = Hashtbl.create 16 in  (* frame index -> the Frame.t handed out *)
      let index = Option.map Frame.index in
      List.for_all
        (fun (op, cpage) ->
          let held = Hashtbl.mem e.e_owner cpage in
          (match op with
          | 0 when not held ->
            let got = IT.alloc t ~cpage and want = eager_alloc e ~cpage in
            if index got <> want then QCheck.Test.fail_reportf "alloc %d: frame differs" cpage;
            Option.iter
              (fun f ->
                if Frame.mem_module f <> 3 then QCheck.Test.fail_report "wrong module";
                match Hashtbl.find_opt seen (Frame.index f) with
                | Some f' when f' != f -> QCheck.Test.fail_report "re-allocated a new Frame.t"
                | _ -> Hashtbl.replace seen (Frame.index f) f)
              got
          | 1 when held ->
            IT.free t (Option.get (IT.lookup t ~cpage));
            eager_free e ~cpage
          | _ -> ());
          index (IT.lookup t ~cpage) = Hashtbl.find_opt e.e_owner cpage
          && IT.free_count t = frames - Hashtbl.length e.e_owner
          && IT.used_count t = Hashtbl.length e.e_owner
          && IT.capacity t = frames)
        ops)

(* --- Phys_mem --- *)

let test_pm_local_alloc () =
  let pm = Phys_mem.create ~modules:4 ~frames_per_module:2 ~page_words:4 in
  let f = Option.get (Phys_mem.alloc_local pm ~mem_module:2 ~cpage:7) in
  Alcotest.(check int) "in requested module" 2 (Frame.mem_module f);
  Alcotest.(check bool) "lookup" true (Phys_mem.lookup pm ~mem_module:2 ~cpage:7 = Some f);
  Alcotest.(check int) "total free" 7 (Phys_mem.total_free pm)

let test_pm_prefer_fallback () =
  let pm = Phys_mem.create ~modules:3 ~frames_per_module:1 ~page_words:4 in
  ignore (Phys_mem.alloc_local pm ~mem_module:0 ~cpage:100);
  (* Module 0 is full: preference falls back elsewhere. *)
  let f = Option.get (Phys_mem.alloc_preferring pm ~prefer:0 ~cpage:7) in
  Alcotest.(check bool) "fell back" true (Frame.mem_module f <> 0)

let test_pm_fallback_avoids_duplicates () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:2 ~page_words:4 in
  (* cpage 7 already has a copy on module 1; module 0 is full. *)
  ignore (Phys_mem.alloc_local pm ~mem_module:0 ~cpage:1);
  ignore (Phys_mem.alloc_local pm ~mem_module:0 ~cpage:2);
  ignore (Phys_mem.alloc_local pm ~mem_module:1 ~cpage:7);
  Alcotest.(check bool) "refuses second copy in same module" true
    (Phys_mem.alloc_preferring pm ~prefer:0 ~cpage:7 = None)

let test_pm_oom () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:1 ~page_words:4 in
  ignore (Phys_mem.alloc_preferring pm ~prefer:0 ~cpage:1);
  ignore (Phys_mem.alloc_preferring pm ~prefer:0 ~cpage:2);
  Alcotest.(check bool) "exhausted" true (Phys_mem.alloc_preferring pm ~prefer:0 ~cpage:3 = None);
  Alcotest.(check int) "none free" 0 (Phys_mem.total_free pm)

let test_pm_free () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:1 ~page_words:4 in
  let f = Option.get (Phys_mem.alloc_local pm ~mem_module:1 ~cpage:5) in
  Phys_mem.free pm f;
  Alcotest.(check bool) "gone" true (Phys_mem.lookup pm ~mem_module:1 ~cpage:5 = None);
  Alcotest.(check int) "free again" 2 (Phys_mem.total_free pm)

let suite =
  [
    ("frame: data plane", `Quick, test_frame_data);
    ("frame: blit", `Quick, test_frame_blit);
    ("frame: blit size mismatch", `Quick, test_frame_blit_size_mismatch);
    ("frame: ownership", `Quick, test_frame_owner);
    ("frame: zero fill", `Quick, test_frame_zero_fill);
    ("inverted table: alloc/lookup", `Quick, test_it_alloc_lookup);
    ("inverted table: double alloc rejected", `Quick, test_it_double_alloc_rejected);
    ("inverted table: exhaustion", `Quick, test_it_exhaustion);
    ("inverted table: free and reuse", `Quick, test_it_free_reuse);
    ("inverted table: wrong-module free", `Quick, test_it_free_wrong_module);
    ("inverted table: double free", `Quick, test_it_double_free);
    qtest prop_it_model;
    qtest prop_it_lazy_eq_eager;
    ("phys: local alloc", `Quick, test_pm_local_alloc);
    ("phys: fallback on full module", `Quick, test_pm_prefer_fallback);
    ("phys: fallback avoids duplicate copies", `Quick, test_pm_fallback_avoids_duplicates);
    ("phys: out of memory", `Quick, test_pm_oom);
    ("phys: free", `Quick, test_pm_free);
  ]
