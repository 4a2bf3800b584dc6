(* Differential properties for the flat translation tables (PR 5).

   The seed indexed Pmap and Atc entries with hash tables; the rework
   replaced those with chunked vpage-indexed arrays ([Flat]), and the ATC
   became a stamp on the Pmap entry.  These properties drive identical
   random operation sequences through the old hash-based tables
   ([Ref_tables], kept verbatim) and the new ones, asserting observably
   identical state after every step — including for
   spill keys outside the dense range — and that the sanitizers
   ([Cmap.check_faults], [Cpage.check_faults]) stay clean throughout. *)

module Frame = Platinum_phys.Frame
module Procset = Platinum_machine.Procset
module Flat = Platinum_core.Flat
module Pmap = Platinum_core.Pmap
module Atc = Platinum_core.Atc
module Cmap = Platinum_core.Cmap
module Cpage = Platinum_core.Cpage
module Rights = Platinum_core.Rights

let qtest = QCheck_alcotest.to_alcotest

(* Key universe: dense keys (small, boundary, just-under-limit), spill
   keys (over the limit and far out).  Every property sweeps this whole
   universe after each operation, so dense/spill disagreements can't hide. *)
let vpages =
  [| 0; 1; 2; 3; 7; 63; 64; 1_000; Flat.dense_limit - 1; Flat.dense_limit + 3; 1_000_000 |]

let nframes = 6

(* The page every model-test entry carries: the reference tables keep no
   page, so the differential compares frames and rights only. *)
let page0 = Cpage.create ~id:0 ~home:0 ()

let make_frames () =
  Array.init nframes (fun i -> Frame.create ~mem_module:(i mod 3) ~index:i ~words:4)

(* --- property 1: Pmap + ATC vs the seed's hash tables --- *)

type op =
  | Install of int * int * bool  (* vpage index, frame index, write_ok *)
  | Remove of int
  | Restrict of int
  | Atc_activate of int  (* aspace *)
  | Atc_load of int  (* vpage index: cache the live pmap entry, if any *)

let op_gen =
  let open QCheck.Gen in
  let vp = int_bound (Array.length vpages - 1) in
  frequency
    [
      (6, map3 (fun v f w -> Install (v, f, w)) vp (int_bound (nframes - 1)) bool);
      (3, map (fun v -> Remove v) vp);
      (3, map (fun v -> Restrict v) vp);
      (2, map (fun a -> Atc_activate a) (int_bound 2));
      (4, map (fun v -> Atc_load v) vp);
    ]

let pp_op = function
  | Install (v, f, w) -> Printf.sprintf "install v%d f%d w%b" vpages.(v) f w
  | Remove v -> Printf.sprintf "remove v%d" vpages.(v)
  | Restrict v -> Printf.sprintf "restrict v%d" vpages.(v)
  | Atc_activate a -> Printf.sprintf "activate a%d" a
  | Atc_load v -> Printf.sprintf "atc-load v%d" vpages.(v)

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* Observable equality of one translation: same presence, physically the
   same frame, same write permission. *)
let same_entry ~what vpage (a : Pmap.entry option) (b : Ref_tables.Pmap.entry option) =
  match a, b with
  | None, None -> ()
  | Some e, Some r ->
    if not (e.Pmap.frame == r.Ref_tables.Pmap.frame) then
      QCheck.Test.fail_reportf "%s: vpage %d maps different frames" what vpage;
    if e.Pmap.write_ok <> r.Ref_tables.Pmap.write_ok then
      QCheck.Test.fail_reportf "%s: vpage %d write_ok disagrees" what vpage
  | Some _, None -> QCheck.Test.fail_reportf "%s: vpage %d bound only in flat" what vpage
  | None, Some _ -> QCheck.Test.fail_reportf "%s: vpage %d bound only in reference" what vpage

(* The ATC's view of [vpage] in [aspace]: the Pmap entry, if its stamp
   says the ATC holds it. *)
let atc_find pm atc ~aspace ~vpage =
  match Pmap.find pm ~vpage with
  | Some e when Atc.is_active atc ~aspace && Atc.holds atc e -> Some e
  | _ -> None

let check_agreement (pm, atc) (rpm, ratc) =
  if Pmap.size pm <> Ref_tables.Pmap.size rpm then
    QCheck.Test.fail_reportf "pmap size %d vs reference %d" (Pmap.size pm)
      (Ref_tables.Pmap.size rpm);
  let held =
    Array.fold_left
      (fun n vpage -> match Pmap.find pm ~vpage with Some e when Atc.holds atc e -> n + 1 | _ -> n)
      0 vpages
  in
  if held <> Ref_tables.Atc.size ratc then
    QCheck.Test.fail_reportf "atc holds %d vs reference %d" held (Ref_tables.Atc.size ratc);
  if Atc.active_aspace atc <> Ref_tables.Atc.active_aspace ratc then
    QCheck.Test.fail_reportf "active aspace disagrees";
  Array.iter
    (fun vpage ->
      let e = Pmap.find pm ~vpage and r = Ref_tables.Pmap.find rpm ~vpage in
      same_entry ~what:"pmap" vpage e r;
      (* The probes must answer exactly as the reference. *)
      if Pmap.mem pm ~vpage <> (r <> None) then
        QCheck.Test.fail_reportf "mem probe disagrees for vpage %d" vpage;
      let rw = match r with Some e -> e.Ref_tables.Pmap.write_ok | None -> false in
      if Pmap.write_ok pm ~vpage <> rw then
        QCheck.Test.fail_reportf "write_ok probe disagrees for vpage %d" vpage;
      for aspace = 0 to 2 do
        same_entry ~what:"atc"
          vpage
          (atc_find pm atc ~aspace ~vpage)
          (Ref_tables.Atc.peek ratc ~aspace ~vpage)
      done)
    vpages

(* A new or removed Pmap entry leaves the ATC without it, as Coherent's
   shootdowns always arrange; the reference ATC must be told. *)
let drop_ref ratc ~vpage =
  match Ref_tables.Atc.active_aspace ratc with
  | Some aspace -> Ref_tables.Atc.invalidate ratc ~aspace ~vpage
  | None -> ()

let apply_op frames (pm, atc) (rpm, ratc) op =
  match op with
  | Install (v, f, w) ->
    let vpage = vpages.(v) and frame = frames.(f) in
    ignore (Pmap.install pm ~vpage ~frame ~cpage:page0 ~write_ok:w);
    ignore (Ref_tables.Pmap.install rpm ~vpage ~frame ~write_ok:w);
    drop_ref ratc ~vpage
  | Remove v ->
    Pmap.remove pm ~vpage:vpages.(v);
    Ref_tables.Pmap.remove rpm ~vpage:vpages.(v);
    drop_ref ratc ~vpage:vpages.(v)
  | Restrict v ->
    Pmap.restrict pm ~vpage:vpages.(v);
    Ref_tables.Pmap.restrict rpm ~vpage:vpages.(v)
  | Atc_activate a ->
    ignore (Atc.activate atc ~aspace:a);
    ignore (Ref_tables.Atc.activate ratc ~aspace:a)
  | Atc_load v -> (
    let vpage = vpages.(v) in
    if Atc.active_aspace atc <> None then
      match Pmap.find pm ~vpage, Ref_tables.Pmap.find rpm ~vpage with
      | Some e, Some r ->
        Atc.load atc e;
        Ref_tables.Atc.load ratc ~vpage r
      | None, None -> ()
      | _ -> QCheck.Test.fail_reportf "pmaps diverged before atc-load of vpage %d" vpage)

let prop_pmap_atc_differential =
  QCheck.Test.make ~name:"flat Pmap/Atc == seed hash tables (differential)" ~count:300
    ops_arb (fun ops ->
      let frames = make_frames () in
      let sys = (Pmap.create (), Atc.create ()) in
      let ref_sys = (Ref_tables.Pmap.create ~proc:0, Ref_tables.Atc.create ~proc:0) in
      check_agreement sys ref_sys;
      List.iter
        (fun op ->
          apply_op frames sys ref_sys op;
          check_agreement sys ref_sys)
        ops;
      true)

(* --- property 2: Cmap-level differential against a model --- *)

(* Random bind/install/restrict/shootdown-mimic sequences through a
   full Cmap (flat entry table, per-proc flat Pmaps), mirrored by a plain
   hash-table model.  After every operation the observable state must
   match the model and every representation sanitizer must be clean —
   [Cmap.check_faults] covers refmask/Pmap agreement,
   translation-in-directory and stale translations. *)

let nprocs = 4
let cm_vpages = [| 0; 1; 5; 64; Flat.dense_limit + 3 |]

type cop =
  | Bind of int
  | Read_install of int * int  (* proc, vpage index *)
  | Write_install of int * int
  | Restrict_page of int  (* shootdown-mimic Restrict_to_read *)
  | Invalidate_page of int  (* shootdown-mimic Invalidate *)

let cop_gen =
  let open QCheck.Gen in
  let vp = int_bound (Array.length cm_vpages - 1) in
  let proc = int_bound (nprocs - 1) in
  frequency
    [
      (4, map (fun v -> Bind v) vp);
      (6, map2 (fun p v -> Read_install (p, v)) proc vp);
      (4, map2 (fun p v -> Write_install (p, v)) proc vp);
      (3, map (fun v -> Restrict_page v) vp);
      (3, map (fun v -> Invalidate_page v) vp);
    ]

let pp_cop = function
  | Bind v -> Printf.sprintf "bind v%d" cm_vpages.(v)
  | Read_install (p, v) -> Printf.sprintf "read p%d v%d" p cm_vpages.(v)
  | Write_install (p, v) -> Printf.sprintf "write p%d v%d" p cm_vpages.(v)
  | Restrict_page v -> Printf.sprintf "restrict v%d" cm_vpages.(v)
  | Invalidate_page v -> Printf.sprintf "invalidate v%d" cm_vpages.(v)

let cops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_cop ops))
    QCheck.Gen.(list_size (int_range 1 150) cop_gen)

type model = {
  m_bound : (int, unit) Hashtbl.t;  (* vpage -> bound *)
  m_trans : (int * int, bool) Hashtbl.t;  (* (proc, vpage) -> write_ok *)
}

let model_procs_of m vpage =
  List.filter (fun p -> Hashtbl.mem m.m_trans (p, vpage)) (List.init nprocs Fun.id)

let apply_cop (cm, pages, m) op =
  match op with
  | Bind v ->
    let vpage = cm_vpages.(v) in
    if not (Hashtbl.mem m.m_bound vpage) then begin
      ignore (Cmap.bind cm ~vpage pages.(v) Rights.Read_write);
      Hashtbl.replace m.m_bound vpage ()
    end
  | Read_install (p, v) ->
    let vpage = cm_vpages.(v) in
    (match Cmap.find cm ~vpage with
    | None -> ()
    | Some ce ->
      (* A write translation must not silently lose its permission: only
         install read-only when the proc has no stronger mapping. *)
      if Hashtbl.find_opt m.m_trans (p, vpage) <> Some true then begin
        ignore
          (Pmap.install (Cmap.pmap cm ~proc:p) ~vpage
             ~frame:(Cpage.any_copy ce.Cmap.cpage) ~cpage:ce.Cmap.cpage ~write_ok:false);
        ce.Cmap.refmask <- Procset.add p ce.Cmap.refmask;
        Hashtbl.replace m.m_trans (p, vpage) false
      end)
  | Write_install (p, v) ->
    let vpage = cm_vpages.(v) in
    (match Cmap.find cm ~vpage with
    | None -> ()
    | Some ce ->
      ignore
        (Pmap.install (Cmap.pmap cm ~proc:p) ~vpage
           ~frame:(Cpage.any_copy ce.Cmap.cpage) ~cpage:ce.Cmap.cpage ~write_ok:true);
      ce.Cmap.refmask <- Procset.add p ce.Cmap.refmask;
      ce.Cmap.cpage.Cpage.write_mapped <- true;
      Hashtbl.replace m.m_trans (p, vpage) true)
  | Restrict_page v ->
    let vpage = cm_vpages.(v) in
    (match Cmap.find cm ~vpage with
    | None -> ()
    | Some ce ->
      let targets = model_procs_of m vpage in
      if targets <> [] then begin
        List.iter
          (fun p ->
            Pmap.restrict (Cmap.pmap cm ~proc:p) ~vpage;
            Hashtbl.replace m.m_trans (p, vpage) false)
          targets;
        ce.Cmap.cpage.Cpage.write_mapped <- false
      end)
  | Invalidate_page v ->
    let vpage = cm_vpages.(v) in
    (match Cmap.find cm ~vpage with
    | None -> ()
    | Some ce ->
      let targets = model_procs_of m vpage in
      if targets <> [] then begin
        List.iter
          (fun p ->
            Pmap.remove (Cmap.pmap cm ~proc:p) ~vpage;
            ce.Cmap.refmask <- Procset.remove p ce.Cmap.refmask;
            Hashtbl.remove m.m_trans (p, vpage))
          targets;
        ce.Cmap.cpage.Cpage.write_mapped <- false
      end)

let check_cmap_agreement (cm, pages, m) =
  (match Cmap.check_faults cm with
  | None -> ()
  | Some f -> QCheck.Test.fail_reportf "cmap sanitizer: %s" (Platinum_core.Check.render f));
  Array.iter
    (fun page ->
      match Cpage.check_faults page with
      | Ok () -> ()
      | Error f ->
        QCheck.Test.fail_reportf "cpage sanitizer: %s" (Platinum_core.Check.render f))
    pages;
  Array.iteri
    (fun v vpage ->
      let bound = Hashtbl.mem m.m_bound vpage in
      (match Cmap.find cm ~vpage with
      | Some ce ->
        if not bound then QCheck.Test.fail_reportf "vpage %d bound only in Cmap" vpage;
        if not (ce.Cmap.cpage == pages.(v)) then
          QCheck.Test.fail_reportf "vpage %d bound to the wrong page" vpage
      | None ->
        if bound then QCheck.Test.fail_reportf "vpage %d bound only in model" vpage);
      for p = 0 to nprocs - 1 do
        let pm = Cmap.pmap cm ~proc:p in
        match Pmap.find pm ~vpage, Hashtbl.find_opt m.m_trans (p, vpage) with
        | None, None -> ()
        | Some e, Some w ->
          if e.Pmap.write_ok <> w then
            QCheck.Test.fail_reportf "proc %d vpage %d write_ok %b, model %b" p vpage
              e.Pmap.write_ok w
        | Some _, None ->
          QCheck.Test.fail_reportf "proc %d vpage %d mapped only in Cmap" p vpage
        | None, Some _ ->
          QCheck.Test.fail_reportf "proc %d vpage %d mapped only in model" p vpage
      done)
    cm_vpages

let prop_cmap_differential =
  QCheck.Test.make ~name:"flat Cmap/queue vs hash-table model (differential)" ~count:200
    cops_arb (fun ops ->
      let cm = Cmap.create ~aspace:0 ~nprocs in
      let pages =
        Array.mapi
          (fun i _ ->
            let page = Cpage.create ~id:i ~home:0 () in
            Cpage.add_copy page (Frame.create ~mem_module:0 ~index:i ~words:4);
            page)
          cm_vpages
      in
      let m = { m_bound = Hashtbl.create 8; m_trans = Hashtbl.create 8 } in
      let sys = (cm, pages, m) in
      check_cmap_agreement sys;
      List.iter
        (fun op ->
          apply_cop sys op;
          check_cmap_agreement sys)
        ops;
      true)

(* --- property 3: the chunked representation at its seams (PR 10) ---

   The dense prefix is now a two-level chunked table (512-entry chunks on
   first touch).  This property drives random operation streams through a
   key universe concentrated on the seams — both sides of every chunk
   boundary, the dense/spill boundary at [dense_limit], and keys in
   chunks that are never touched at all — against a plain hash-table
   model, sweeping the whole universe after every step. *)

let seam_keys =
  let cs = Flat.chunk_size in
  [|
    0;
    1;
    cs - 1;
    cs;
    cs + 1;
    (2 * cs) - 1;
    2 * cs;
    (5 * cs) + 7;
    (29 * cs) - 1;
    29 * cs;
    Flat.dense_limit - cs;
    Flat.dense_limit - 1;
    Flat.dense_limit;
    Flat.dense_limit + 3;
    (2 * Flat.dense_limit) + 1;
  |]

type fop =
  | Fset of int * int  (* key index, value *)
  | Fremove of int
  | Fremove_untouched of int  (* remove in a chunk nothing was written to *)

let fop_gen =
  let open QCheck.Gen in
  let ki = int_bound (Array.length seam_keys - 1) in
  frequency
    [
      (8, map2 (fun k v -> Fset (k, v)) ki (int_bound 10_000));
      (4, map (fun k -> Fremove k) ki);
      (2, map (fun k -> Fremove_untouched k) ki);
    ]

let pp_fop = function
  | Fset (k, v) -> Printf.sprintf "set %d=%d" seam_keys.(k) v
  | Fremove k -> Printf.sprintf "remove %d" seam_keys.(k)
  | Fremove_untouched k -> Printf.sprintf "remove-untouched %d" seam_keys.(k)

let fops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_fop ops))
    QCheck.Gen.(list_size (int_range 1 200) fop_gen)

(* An untouched-chunk key: same chunk-relative offset, in a chunk the
   seam universe never writes (chunk 97). *)
let untouched_key k = (97 * Flat.chunk_size) + (seam_keys.(k) land Flat.chunk_mask)

let check_flat_agreement (fl : int Flat.t) (model : (int, int) Hashtbl.t) =
  if Flat.length fl <> Hashtbl.length model then
    QCheck.Test.fail_reportf "length %d vs model %d" (Flat.length fl) (Hashtbl.length model);
  Array.iter
    (fun k ->
      (match Flat.find fl k, Hashtbl.find_opt model k with
      | None, None -> ()
      | Some a, Some b when a = b -> ()
      | _ -> QCheck.Test.fail_reportf "find disagrees at key %d" k);
      if Flat.mem fl k <> Hashtbl.mem model k then
        QCheck.Test.fail_reportf "mem disagrees at key %d" k;
      let u = (97 * Flat.chunk_size) + (k land Flat.chunk_mask) in
      if Flat.mem fl u && not (Hashtbl.mem model u) then
        QCheck.Test.fail_reportf "phantom binding in untouched chunk at %d" u)
    seam_keys;
  (* iter must visit exactly the model's bindings, dense keys ascending *)
  let seen = ref [] in
  Flat.iter (fun k v -> seen := (k, v) :: !seen) fl;
  let got = List.sort compare !seen in
  let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
  if got <> want then QCheck.Test.fail_reportf "iter bindings disagree with model"

let prop_chunk_seams_differential =
  QCheck.Test.make ~name:"chunked Flat vs hash-table model at the chunk seams"
    ~count:300 fops_arb (fun ops ->
      let fl = Flat.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
          | Fset (k, v) ->
            Flat.set fl seam_keys.(k) v;
            Hashtbl.replace model seam_keys.(k) v
          | Fremove k ->
            Flat.remove fl seam_keys.(k);
            Hashtbl.remove model seam_keys.(k)
          | Fremove_untouched k ->
            (* removing where no chunk exists must be a no-op, not an
               allocation of the chunk *)
            let before = Flat.chunk_count fl in
            Flat.remove fl (untouched_key k);
            Hashtbl.remove model (untouched_key k);
            if Flat.chunk_count fl <> before then
              QCheck.Test.fail_reportf "remove allocated directory space in an untouched chunk");
          check_flat_agreement fl model)
        ops;
      true)

(* --- the zero-allocation gate on chunked steady-state hits ---

   A mapped probe — dense chunk hit or spill hit — must allocate nothing
   on the minor heap: the hot path returns the stored option cell.  This
   is the same contract the §4h AST lint pins structurally; here we pin it
   behaviourally, across chunk and spill keys. *)

let test_steady_hits_allocate_nothing () =
  let fl = Flat.create () in
  Array.iteri (fun i k -> Flat.set fl k (i * 3)) seam_keys;
  (* warm up: fault in any lazy structure and the loop's own closure *)
  let probe () =
    let acc = ref 0 in
    for round = 1 to 100 do
      ignore round;
      for i = 0 to Array.length seam_keys - 1 do
        let k = Array.unsafe_get seam_keys i in
        (match Flat.find fl k with Some v -> acc := !acc + v | None -> acc := !acc - 1);
        if Flat.mem fl k then incr acc
      done
    done;
    !acc
  in
  let warm = probe () in
  let before = Gc.minor_words () in
  let hot = probe () in
  let after = Gc.minor_words () in
  Alcotest.(check int) "probe result stable" warm hot;
  Alcotest.(check (float 0.0))
    "steady-state hits allocate 0 minor words" 0.0 (after -. before)

(* Keys outside [0, dense_limit) take [find]'s out-of-line spill path:
   it must still find what [set] stored there, and nothing else. *)
let test_spill_keys_served () =
  let fl = Flat.create () in
  let spilled = [ -7; -1; Flat.dense_limit; Flat.dense_limit + 3; max_int ] in
  List.iter (fun k -> Flat.set fl k (k + 1)) spilled;
  List.iter
    (fun k -> Alcotest.(check (option int)) (Printf.sprintf "key %d" k) (Some (k + 1)) (Flat.find fl k))
    spilled;
  Alcotest.(check (option int)) "absent spill key" None (Flat.find fl (Flat.dense_limit + 4));
  Alcotest.(check int) "population" (List.length spilled) (Flat.length fl);
  Alcotest.(check int) "no chunk touched" 0 (Flat.chunk_count fl)

(* --- footprint: a touched page costs one 512-entry chunk ---

   One key in each of [k] 4096-page windows touches [k] chunks of at most
   512 cells (4 KB and a header word each), plus its [Some] cell and the
   directory, whose growth copies sum to under twice its final length.
   [Gc.counters] counts the words allocated, minor or straight to the
   major heap.  The minor heap is emptied first: OCaml 5.1 over-counts
   minor words when a collection that the window triggers finds words
   allocated before it. *)
let words_allocated f =
  Gc.minor ();
  let mi0, pro0, ma0 = Gc.counters () in
  f ();
  let mi1, pro1, ma1 = Gc.counters () in
  (mi1 -. mi0) +. (ma1 -. ma0) -. (pro1 -. pro0)

let test_touch_footprint () =
  let k = 64 and fl = Flat.create () in
  let w = words_allocated (fun () -> for i = 0 to k - 1 do Flat.set fl (i * 4096) i done) in
  let budget = (k * (512 + 1 + 2)) + (4 * Flat.chunk_count fl) in
  Alcotest.(check bool)
    (Printf.sprintf "%d windows touched: %.0f words allocated, budget %d" k w budget)
    true
    (w <= float_of_int budget);
  Alcotest.(check int) "every key bound" k (Flat.length fl)

let suite =
  [
    qtest prop_pmap_atc_differential;
    qtest prop_cmap_differential;
    qtest prop_chunk_seams_differential;
    ("flat: chunked steady hits allocate nothing", `Quick, test_steady_hits_allocate_nothing);
    ("flat: find serves spilled keys", `Quick, test_spill_keys_served);
    ("flat: a touched window costs one small chunk", `Quick, test_touch_footprint);
  ]
