(* Tests for physical memory: frames, per-module free lists, and where
   the coherent layer places a page's frames. *)

module Frame = Platinum_phys.Frame
module Phys_mem = Platinum_phys.Phys_mem
module Procset = Platinum_machine.Procset
module Coherent = Platinum_core.Coherent
module Cpage = Platinum_core.Cpage
module Counters = Platinum_core.Counters
module Memtxn = Platinum_core.Memtxn

let qtest = QCheck_alcotest.to_alcotest

(* --- Frame --- *)

let test_frame_data () =
  let f = Frame.create ~mem_module:2 ~index:7 ~words:16 in
  Frame.fill_zero f;
  Alcotest.(check int) "module" 2 (Frame.mem_module f);
  Alcotest.(check int) "index" 7 (Frame.index f);
  Alcotest.(check int) "words" 16 (Frame.words f);
  Frame.set f 3 99;
  Alcotest.(check int) "set/get" 99 (Frame.get f 3);
  Alcotest.(check int) "others zero" 0 (Frame.get f 4)

let test_frame_blit () =
  let a = Frame.create ~mem_module:0 ~index:0 ~words:8 in
  let b = Frame.create ~mem_module:1 ~index:0 ~words:8 in
  Frame.fill_zero a;
  for i = 0 to 7 do
    Frame.set a i (i * i)
  done;
  Frame.blit_from ~src:a ~dst:b;
  Alcotest.(check bool) "equal after blit" true (Frame.equal_data a b);
  Frame.set_owner b (Some 6);
  Alcotest.check_raises "a write to a shared frame raises"
    (Frame.Shared_write { mem_module = 1; index = 0; owner = 6 }) (fun () -> Frame.set b 0 42);
  Alcotest.(check bool) "still equal after the refused write" true (Frame.equal_data a b)

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
  Frame.fill_zero f;
  Frame.set f 2 7;
  Frame.fill_zero f;
  Alcotest.(check int) "zeroed" 0 (Frame.get f 2)

(* --- replicas share a buffer until a write --- *)

let frame_words f = Array.init (Frame.words f) (Frame.get f)
let pattern ?(words = 8) k =
  let f = Frame.create ~mem_module:k ~index:0 ~words in
  Frame.fill_zero f;
  for i = 0 to words - 1 do
    Frame.set f i ((k * 100) + i)
  done;
  f

(* A write to a shared buffer would give the page a writer and a second
   copy (§3.2), so it raises instead of writing either frame. *)
let shared_write f =
  Frame.Shared_write { mem_module = Frame.mem_module f; index = Frame.index f; owner = -1 }

let test_share_write_either_side () =
  let a = pattern 1 and b = pattern 2 and c = pattern 3 in
  let a0 = frame_words a in
  Frame.blit_from ~src:a ~dst:b;
  Alcotest.check_raises "a write to a shared frame raises: the copy" (shared_write b) (fun () ->
      Frame.set b 3 (-1));
  Frame.blit_from ~src:a ~dst:c;
  Alcotest.check_raises "a write to a shared frame raises: the source" (shared_write a)
    (fun () -> Frame.set a 0 (-2));
  Alcotest.check_raises "a block write to a shared frame raises" (shared_write a) (fun () ->
      Frame.write_words a ~off:5 ~src:[| -3; -4 |] ~src_off:0 ~words:2);
  List.iter
    (fun f -> Alcotest.(check (array int)) "every sharer keeps its words" a0 (frame_words f))
    [ a; b; c ];
  let msg = try Frame.set c 0 0; "" with e -> Printexc.to_string e in
  Alcotest.(check bool) ("the violation is named: " ^ msg) true
    (String.starts_with ~prefix:"cpage -1: shared-write" msg)

let test_share_fill_zero () =
  let a = pattern 1 and b = pattern 2 in
  let a0 = frame_words a in
  Frame.blit_from ~src:a ~dst:b;
  Alcotest.check_raises "zeroing a shared frame raises" (shared_write b) (fun () ->
      Frame.fill_zero b);
  Alcotest.(check (array int)) "zeroing a sharer leaves the other" a0 (frame_words a);
  Alcotest.(check (array int)) "and the sharer" a0 (frame_words b)

(* 1,024 words: a private copy of the buffer would be a major-heap block.
   [Gc.counters] counts it at once; OCaml 5's [quick_stat] may not yet. *)
let major_words_of f =
  Gc.minor ();
  let _, _, m0 = Gc.counters () in
  f ();
  let _, _, m1 = Gc.counters () in
  m1 -. m0

let test_share_free_drops () =
  let a = pattern ~words:1024 1 and b = pattern ~words:1024 2 in
  Frame.set_owner b (Some 5);
  Frame.blit_from ~src:a ~dst:b;
  let w =
    major_words_of (fun () ->
        Frame.set_owner b None;
        Frame.set a 0 7)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the free and the survivor's write allocate no buffer (%.0f major words)" w)
    true (w < 1024.);
  Alcotest.check_raises "a freed sharer holds no data"
    (Frame.Unbacked_read { mem_module = 2; index = 0; owner = -1 })
    (fun () -> ignore (Frame.get b 0));
  let msg = try ignore (Frame.get b 0); "" with e -> Printexc.to_string e in
  Alcotest.(check bool) ("the violation is named: " ^ msg) true
    (String.starts_with ~prefix:"cpage -1: unbacked-frame-read" msg);
  Frame.fill_zero b;
  Alcotest.(check int) "zero fill gives it a buffer again" 0 (Frame.get b 0);
  Alcotest.(check int) "survivor kept its words" 7 (Frame.get a 0)

(* --- a pool frame has no buffer until its first fill ---

   A replica's first step is a Copy, which shares the source's buffer, so
   a buffer allocated with the frame would be dropped unread.  Words
   allocated straight on the major heap (every 1,024-word buffer) are
   [major - promoted] in [Gc.counters]. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  (m1 -. m0) -. (p1 -. p0)

let test_fresh_blit_allocates_no_buffer () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:1000 ~page_words:1024 in
  let src = Option.get (Phys_mem.alloc pm ~mem_module:0 ~cpage:0) in
  Frame.fill_zero src;
  Frame.set src 5 55;
  let frame i = Option.get (Phys_mem.alloc pm ~mem_module:1 ~cpage:i) in
  let one = direct_major_words (fun () -> Frame.blit_from ~src ~dst:(frame 1)) in
  Alcotest.(check (float 0.)) "alloc then blit: no page buffer" 0. one;
  let dsts = ref [] in
  let all =
    direct_major_words (fun () ->
        for i = 2 to 1000 do
          let f = frame i in
          Frame.blit_from ~src ~dst:f;
          dsts := f :: !dsts
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "999 more replicas: %.0f major words, under one page" all)
    true (all < 1024.);
  List.iter (fun f -> Alcotest.(check int) "a replica reads the source" 55 (Frame.get f 5)) !dsts

let test_fresh_zero_fill_one_buffer () =
  let pm = Phys_mem.create ~modules:1 ~frames_per_module:2 ~page_words:1024 in
  let f = Option.get (Phys_mem.alloc pm ~mem_module:0 ~cpage:3) in
  let w = direct_major_words (fun () -> Frame.fill_zero f) in
  Alcotest.(check bool)
    (Printf.sprintf "zero fill of a fresh frame: one buffer (%.0f major words)" w)
    true
    (w >= 1024. && w < 2048.);
  Alcotest.(check int) "zeroed" 0 (Frame.get f 1023)

let test_fresh_frame_raises () =
  let f = Frame.create ~mem_module:0 ~index:0 ~words:4 in
  let unbacked = Frame.Unbacked_read { mem_module = 0; index = 0; owner = -1 } in
  Alcotest.check_raises "get before the first fill" unbacked (fun () -> ignore (Frame.get f 0));
  Alcotest.check_raises "set before the first fill" unbacked (fun () -> Frame.set f 0 1);
  let buf = Array.make 4 0 in
  Alcotest.check_raises "read_words before the first fill" unbacked (fun () ->
      Frame.read_words f ~off:0 ~dst:buf ~dst_off:0 ~words:4);
  Alcotest.check_raises "write_words before the first fill" unbacked (fun () ->
      Frame.write_words f ~off:0 ~src:buf ~src_off:0 ~words:1);
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:4 ~page_words:4 in
  let p = Option.get (Phys_mem.alloc pm ~mem_module:1 ~cpage:9) in
  Alcotest.check_raises "a pool frame before its first fill"
    (Frame.Unbacked_read { mem_module = 1; index = 0; owner = 9 }) (fun () ->
      ignore (Frame.get p 3));
  Alcotest.check_raises "no blit source before the first fill"
    (Invalid_argument "Frame.blit_from: size mismatch") (fun () ->
      Frame.blit_from ~src:f ~dst:(Frame.create ~mem_module:1 ~index:0 ~words:4));
  Frame.fill_zero f;
  List.iter
    (fun off ->
      let what = Printf.sprintf "offset %d of a backed frame" off in
      Alcotest.check_raises ("get at " ^ what) (Invalid_argument "index out of bounds")
        (fun () -> ignore (Frame.get f off));
      Alcotest.check_raises ("set at " ^ what) (Invalid_argument "index out of bounds")
        (fun () -> Frame.set f off 1))
    [ -1; 4; max_int; min_int; 1 lsl 60; (1 lsl 61) + 1 ]

let test_share_repeat_blit () =
  let a = pattern ~words:1024 1 and b = pattern ~words:1024 2 in
  Frame.blit_from ~src:a ~dst:b;
  Frame.blit_from ~src:a ~dst:b;
  Frame.blit_from ~src:b ~dst:a;
  Frame.blit_from ~src:a ~dst:a;
  Frame.set_owner b None;
  let w = major_words_of (fun () -> Frame.set a 0 7) in
  Alcotest.(check bool)
    (Printf.sprintf "repeat blits count one share (%.0f major words)" w)
    true (w < 1024.);
  Alcotest.check_raises "a freed sharer is no blit source"
    (Invalid_argument "Frame.blit_from: size mismatch") (fun () ->
      Frame.blit_from ~src:b ~dst:(pattern ~words:1024 3))

(* --- the buffer layout: each word is the OCaml int's own tagged form ---

   A word the frame stores wrongly tagged reads back wrong, and one copied
   into a heap array untagged is a pointer to the GC: the full major
   collection below would follow it. *)
let extremes = [ min_int; max_int; -1; 0; 1; 1 lsl 53; -(1 lsl 53) ]

let test_layout_round_trip () =
  let n = List.length extremes in
  let f = Frame.create ~mem_module:0 ~index:0 ~words:n in
  Frame.fill_zero f;
  List.iteri (fun i v -> Frame.set f i v) extremes;
  Alcotest.(check (list int)) "set then get" extremes (List.init n (Frame.get f));
  let src = Array.of_list extremes in
  let g = Frame.create ~mem_module:0 ~index:1 ~words:1024 in
  Frame.fill_zero g;
  Frame.write_words g ~off:1017 ~src ~src_off:0 ~words:n;
  let dst = Array.make 1024 7 in
  Frame.read_words g ~off:1017 ~dst ~dst_off:3 ~words:n;
  let want = Array.init 1024 (fun i -> if i >= 3 && i < 3 + n then src.(i - 3) else 7) in
  Alcotest.(check (array int)) "write_words then read_words" want dst;
  Gc.full_major ();
  Alcotest.(check (array int)) "the same after a full major collection" want dst;
  Alcotest.(check (list int)) "and get agrees" extremes (List.init n (fun i -> Frame.get g (1017 + i)))

(* A frame recycled through the free list keeps its buffer (one holder),
   so its zero fill rewrites the words in place. *)
let test_recycled_zero_fill () =
  let pm = Phys_mem.create ~modules:1 ~frames_per_module:1 ~page_words:1024 in
  let f = Option.get (Phys_mem.alloc pm ~mem_module:0 ~cpage:1) in
  Frame.fill_zero f;
  Frame.write_words f ~off:0 ~src:(Array.init 1024 (fun i -> i - 512)) ~src_off:0 ~words:1024;
  Phys_mem.free pm f;
  let f' = Option.get (Phys_mem.alloc pm ~mem_module:0 ~cpage:2) in
  Alcotest.(check bool) "the same frame" true (f' == f);
  Frame.fill_zero f';
  let dst = Array.make 1024 (-1) in
  Frame.read_words f' ~off:0 ~dst ~dst_off:0 ~words:1024;
  Alcotest.(check (array int)) "read_words sees zeros" (Array.make 1024 0) dst;
  Gc.full_major ();
  Alcotest.(check (array int)) "after a full major collection" (Array.make 1024 0) dst;
  Alcotest.(check (array int)) "get sees zeros" (Array.make 1024 0) (frame_words f')

(* --- the block copies: eight words per iteration, then the tail ---

   Every length 0-40 and 1,016-1,024, at offsets on both sides of an
   8-word block boundary, against a plain per-word copy; the words around
   the copied range must keep their values. *)
let copy_lengths = List.init 41 Fun.id @ List.init 9 (fun i -> 1016 + i)
let copy_offsets = [ 0; 1; 3; 7; 8; 9 ]

let plain_copy src src_off dst dst_off words =
  for i = 0 to words - 1 do
    dst.(dst_off + i) <- src.(src_off + i)
  done

let test_copy_matches_plain () =
  let check what want got = Alcotest.(check (array int)) what want got in
  List.iter
    (fun words ->
      List.iter
        (fun off ->
          List.iter
            (fun buf_off ->
              if off + words <= 1024 then begin
                let what =
                  Printf.sprintf "%d words, frame offset %d, buffer offset %d" words off buf_off
                in
                (* read: frame -> a sentinel-filled buffer *)
                let f = pattern ~words:1024 3 in
                let dst = Array.make (buf_off + words + 9) (-1) in
                let want = Array.copy dst in
                plain_copy (frame_words f) off want buf_off words;
                Frame.read_words f ~off ~dst ~dst_off:buf_off ~words;
                check ("read_words: " ^ what) want dst;
                (* write: a buffer -> a patterned frame *)
                let src = Array.init (buf_off + words + 9) (fun i -> -(i + 1)) in
                let want = frame_words f in
                plain_copy src buf_off want off words;
                Frame.write_words f ~off ~src ~src_off:buf_off ~words;
                check ("write_words: " ^ what) want (frame_words f)
              end)
            copy_offsets)
        copy_offsets)
    copy_lengths

(* A range past either end, or a negative one, raises before any word
   moves: the unrolled blocks before the bad end must not be copied. *)
let test_copy_range_checked_first () =
  let out_of_range = Invalid_argument "Frame: copy out of range" in
  let f = pattern ~words:1024 4 in
  let f0 = frame_words f in
  let dst = Array.make 40 (-1) in
  List.iter
    (fun (off, dst_off, words) ->
      Alcotest.check_raises
        (Printf.sprintf "read_words ~off:%d ~dst_off:%d ~words:%d" off dst_off words)
        out_of_range (fun () -> Frame.read_words f ~off ~dst ~dst_off ~words);
      Alcotest.(check (array int)) "no word read" (Array.make 40 (-1)) dst)
    [ (0, 1, 40); (1000, 0, 25); (-1, 0, 8); (0, -1, 8); (0, 0, -1) ];
  let src = Array.make 40 7 in
  List.iter
    (fun (off, src_off, words) ->
      Alcotest.check_raises
        (Printf.sprintf "write_words ~off:%d ~src_off:%d ~words:%d" off src_off words)
        out_of_range (fun () -> Frame.write_words f ~off ~src ~src_off ~words);
      Alcotest.(check (array int)) "no word written" f0 (frame_words f))
    [ (1000, 0, 25); (0, 1, 40); (-1, 0, 8); (0, -1, 8); (0, 0, -1) ]

(* The shared-write check comes before the copy, on a block long enough
   to go through the unrolled loop. *)
let test_copy_shared_write_first () =
  let a = pattern ~words:1024 1 and b = pattern ~words:1024 2 in
  let a0 = frame_words a in
  Frame.blit_from ~src:a ~dst:b;
  Alcotest.check_raises "a long block write to a shared frame raises" (shared_write b)
    (fun () -> Frame.write_words b ~off:3 ~src:(Array.make 37 (-5)) ~src_off:0 ~words:37);
  Alcotest.(check (array int)) "the source keeps its words" a0 (frame_words a);
  Alcotest.(check (array int)) "the sharer keeps its words" a0 (frame_words b)

(* --- the inverted page table: frame -> cpage, kept in each frame's owner --- *)

let test_it_alloc_lookup () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:8 ~page_words:4 in
  Alcotest.(check int) "all free" 8 (Phys_mem.free_count pm ~mem_module:1);
  let f = Option.get (Phys_mem.alloc pm ~mem_module:1 ~cpage:42) in
  Alcotest.(check bool) "frame maps back to its cpage" true (Frame.owner f = Some 42);
  Alcotest.(check int) "in the requested module" 1 (Frame.mem_module f);
  let g = Option.get (Phys_mem.alloc pm ~mem_module:1 ~cpage:43) in
  Alcotest.(check bool) "distinct frames" true (f != g && Frame.index f <> Frame.index g);
  Alcotest.(check bool) "each keeps its own owner" true
    (Frame.owner f = Some 42 && Frame.owner g = Some 43);
  Alcotest.(check int) "free count" 6 (Phys_mem.free_count pm ~mem_module:1)

let test_it_exhaustion () =
  let pm = Phys_mem.create ~modules:1 ~frames_per_module:3 ~page_words:4 in
  for c = 0 to 2 do
    Alcotest.(check bool) "alloc ok" true (Phys_mem.alloc pm ~mem_module:0 ~cpage:c <> None)
  done;
  Alcotest.(check bool) "exhausted" true (Phys_mem.alloc pm ~mem_module:0 ~cpage:99 = None);
  Alcotest.(check int) "none free" 0 (Phys_mem.free_count pm ~mem_module:0)

let test_it_free_reuse () =
  let pm = Phys_mem.create ~modules:1 ~frames_per_module:2 ~page_words:4 in
  let f1 = Option.get (Phys_mem.alloc pm ~mem_module:0 ~cpage:1) in
  ignore (Phys_mem.alloc pm ~mem_module:0 ~cpage:2);
  Phys_mem.free pm f1;
  Alcotest.(check bool) "mapping gone" true (Frame.owner f1 = None);
  Alcotest.(check bool) "can alloc again" true (Phys_mem.alloc pm ~mem_module:0 ~cpage:3 <> None);
  Alcotest.(check bool) "full again" true (Phys_mem.alloc pm ~mem_module:0 ~cpage:4 = None)

(* --- Phys_mem --- *)

let test_pm_local_alloc () =
  let pm = Phys_mem.create ~modules:4 ~frames_per_module:2 ~page_words:4 in
  Alcotest.(check int) "total frames" 8 (Phys_mem.total_frames pm);
  let f = Option.get (Phys_mem.alloc pm ~mem_module:2 ~cpage:7) in
  Alcotest.(check int) "in requested module" 2 (Frame.mem_module f);
  Alcotest.(check bool) "owned by the cpage" true (Frame.owner f = Some 7);
  Alcotest.(check int) "module free" 1 (Phys_mem.free_count pm ~mem_module:2);
  Alcotest.(check int) "other modules untouched" 2 (Phys_mem.free_count pm ~mem_module:1);
  Alcotest.(check int) "total free" 7 (Phys_mem.total_free pm)

let test_pm_oom () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:1 ~page_words:4 in
  Alcotest.(check bool) "module 0" true (Phys_mem.alloc pm ~mem_module:0 ~cpage:1 <> None);
  Alcotest.(check bool) "module 0 exhausted" true (Phys_mem.alloc pm ~mem_module:0 ~cpage:2 = None);
  Alcotest.(check bool) "module 1 still has one" true
    (Phys_mem.alloc pm ~mem_module:1 ~cpage:2 <> None);
  Alcotest.(check bool) "module 1 exhausted" true (Phys_mem.alloc pm ~mem_module:1 ~cpage:3 = None);
  Alcotest.(check int) "none free" 0 (Phys_mem.total_free pm)

let test_pm_free () =
  let pm = Phys_mem.create ~modules:2 ~frames_per_module:1 ~page_words:4 in
  let f = Option.get (Phys_mem.alloc pm ~mem_module:1 ~cpage:5) in
  Frame.fill_zero f;
  Frame.set f 0 9;
  Phys_mem.free pm f;
  Alcotest.(check bool) "owner cleared" true (Frame.owner f = None);
  Alcotest.(check int) "free again" 2 (Phys_mem.total_free pm);
  let f' = Option.get (Phys_mem.alloc pm ~mem_module:1 ~cpage:6) in
  Alcotest.(check bool) "reuse is the same frame" true (f' == f);
  Alcotest.(check int) "stale data kept" 9 (Frame.get f' 0);
  Alcotest.(check bool) "new owner" true (Frame.owner f' = Some 6)

let test_pm_double_free () =
  let pm = Phys_mem.create ~modules:1 ~frames_per_module:2 ~page_words:4 in
  let f = Option.get (Phys_mem.alloc pm ~mem_module:0 ~cpage:1) in
  Phys_mem.free pm f;
  Alcotest.check_raises "double free" (Invalid_argument "Phys_mem.free: frame is already free")
    (fun () -> Phys_mem.free pm f);
  Alcotest.(check int) "count unchanged" 2 (Phys_mem.total_free pm)

(* The lazily built free lists against the eager one they replaced: per
   module, a list that starts as [0; 1; ...] and takes freed frames back
   on its head.  Over random alloc/free sequences on two modules both must
   hand out the same frame indices in the same order and agree on every
   count, and a re-allocated index must be the very same [Frame.t]
   (physical identity, stale data kept). *)
let prop_pm_lazy_eq_eager =
  QCheck.Test.make ~name:"phys: lazy build = eager model" ~count:200
    QCheck.(pair (int_range 1 12) (list (triple (int_bound 1) bool (int_bound 15))))
    (fun (frames, ops) ->
      let pm = Phys_mem.create ~modules:2 ~frames_per_module:frames ~page_words:2 in
      let eager = Array.init 2 (fun _ -> ref (List.init frames Fun.id)) in
      let held = Hashtbl.create 16 in  (* (module, cpage) -> frame *)
      let seen = Hashtbl.create 16 in  (* (module, index) -> the Frame.t handed out *)
      List.for_all
        (fun (m, is_alloc, cpage) ->
          (match Hashtbl.find_opt held (m, cpage) with
          | None when is_alloc -> (
            let want =
              match !(eager.(m)) with
              | [] -> None
              | i :: rest ->
                eager.(m) := rest;
                Some i
            in
            let got = Phys_mem.alloc pm ~mem_module:m ~cpage in
            if Option.map Frame.index got <> want then
              QCheck.Test.fail_reportf "alloc %d on %d: frame differs" cpage m;
            match got with
            | None -> ()
            | Some f ->
              if Frame.mem_module f <> m then QCheck.Test.fail_report "wrong module";
              (match Hashtbl.find_opt seen (m, Frame.index f) with
              | Some f' when f' != f -> QCheck.Test.fail_report "re-allocated a new Frame.t"
              | _ -> Hashtbl.replace seen (m, Frame.index f) f);
              Hashtbl.replace held (m, cpage) f)
          | Some f when not is_alloc ->
            Phys_mem.free pm f;
            Hashtbl.remove held (m, cpage);
            eager.(m) := Frame.index f :: !(eager.(m))
          | _ -> ());
          Phys_mem.free_count pm ~mem_module:m = List.length !(eager.(m))
          && Phys_mem.total_free pm = (2 * frames) - Hashtbl.length held)
        ops)

(* --- placement: where [Coherent] puts a page's new frame --- *)

(* The faulting processor's module is full: the replica lands on the
   emptiest module that holds no copy of the page. *)
let test_pm_prefer_fallback () =
  let env = Test_core.mk ~nprocs:4 ~frames:2 () in
  let pages = Test_core.bind_pages env 4 in
  let pw = Coherent.page_words env.Test_core.coh in
  let write ~proc vpage = ignore (Test_core.write env ~proc (vpage * pw) 42) in
  write ~proc:0 0;  (* page 0 on module 0, 1 frame free there *)
  write ~proc:1 1;
  write ~proc:1 2;  (* module 1 full *)
  write ~proc:2 3;  (* module 2: 1 free; module 3: 2 free *)
  Alcotest.(check int) "replica reads the data" 42 (fst (Test_core.read env ~proc:1 0));
  Alcotest.(check (list int)) "copies on modules 0 and 3" [ 0; 3 ]
    (Procset.to_list pages.(0).Cpage.copy_mask);
  Test_core.check_inv env

(* Every other module is full or already holds a copy: no replica, the
   plan maps the existing copy remotely. *)
let test_pm_fallback_avoids_duplicates () =
  let env = Test_core.mk ~nprocs:3 ~frames:2 () in
  let pages = Test_core.bind_pages env 5 in
  let pw = Coherent.page_words env.Test_core.coh in
  let write ~proc vpage = ignore (Test_core.write env ~proc (vpage * pw) 42) in
  write ~proc:0 0;  (* page 0 on module 0, which keeps a free frame *)
  write ~proc:1 1;
  write ~proc:1 2;  (* module 1 full *)
  write ~proc:2 3;
  write ~proc:2 4;  (* module 2 full *)
  Alcotest.(check int) "remote read" 42 (fst (Test_core.read env ~proc:1 0));
  Alcotest.(check int) "still one copy" 1 (Cpage.ncopies pages.(0));
  Alcotest.(check int) "mapped remotely" 1
    (Coherent.counters env.Test_core.coh).Counters.remote_maps;
  Test_core.check_inv env

(* --- the page split --- *)

(* The shift-and-mask split must equal [/] and [mod] for every page size
   and address, negative addresses and non-power-of-two pages included. *)
(* [Memtxn]'s chunk walk cuts at page ends with the same split: each
   chunk runs to [pw - vaddr mod pw] words at most.  One cursor walks
   every page size, so a stale shift would show. *)
let cursor = Memtxn.make_chunk ()

let chunks ~pw txn =
  let here () = (cursor.Memtxn.c_vaddr, cursor.Memtxn.c_words) in
  if not (Memtxn.first cursor ~page_words:pw txn) then []
  else begin
    let acc = ref [ here () ] in
    while Memtxn.next cursor do
      acc := here () :: !acc
    done;
    List.rev !acc
  end

let rec divide_cuts ~pw vaddr left =
  if left = 0 then []
  else
    let len = Int.min (pw - (vaddr mod pw)) left in
    (vaddr, len) :: divide_cuts ~pw (vaddr + len) (left - len)

let test_page_split () =
  List.iter
    (fun pw ->
      let shift = Phys_mem.page_shift pw in
      Alcotest.(check bool)
        (Printf.sprintf "shift of %d" pw)
        (pw land (pw - 1) = 0)
        (shift >= 0 && 1 lsl shift = pw);
      for vaddr = -3 * pw to 5 * pw do
        let what = Printf.sprintf "page %d, vaddr %d" pw vaddr in
        Alcotest.(check int) (what ^ ": vpage") (vaddr / pw)
          (Phys_mem.vpage ~shift ~page_words:pw vaddr);
        Alcotest.(check int) (what ^ ": offset") (vaddr mod pw)
          (Phys_mem.offset ~shift ~page_words:pw vaddr);
        List.iter
          (fun len ->
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s: chunks of a %d-word block" what len)
              (divide_cuts ~pw vaddr len)
              (chunks ~pw (Memtxn.Block_read { vaddr; dst = Array.make len 0; dst_off = 0; len })))
          [ 1; pw; (2 * pw) + 3 ]
      done)
    [ 1; 2; 3; 6; 8; 1000; 1024 ]

let suite =
  [
    ("frame: data plane", `Quick, test_frame_data);
    ("frame: blit", `Quick, test_frame_blit);
    ("frame: blit size mismatch", `Quick, test_frame_blit_size_mismatch);
    ("frame: ownership", `Quick, test_frame_owner);
    ("frame: zero fill", `Quick, test_frame_zero_fill);
    ("frame: a write to either sharer leaves the other", `Quick, test_share_write_either_side);
    ("frame: zero fill of a sharer leaves the other", `Quick, test_share_fill_zero);
    ("frame: a blit into a pool frame allocates no buffer", `Quick,
     test_fresh_blit_allocates_no_buffer);
    ("frame: zero fill of a pool frame allocates one buffer", `Quick,
     test_fresh_zero_fill_one_buffer);
    ("frame: a fresh frame raises until filled", `Quick, test_fresh_frame_raises);
    ("frame: a freed sharer drops its share", `Quick, test_share_free_drops);
    ("frame: a repeat blit is a no-op", `Quick, test_share_repeat_blit);
    ("frame: words keep every int through a major collection", `Quick,
     test_layout_round_trip);
    ("frame: a recycled frame reads zeros after its zero fill", `Quick, test_recycled_zero_fill);
    ("frame: block copies equal a per-word copy", `Quick, test_copy_matches_plain);
    ("frame: a bad range raises before copying", `Quick, test_copy_range_checked_first);
    ("frame: a shared block write raises before copying", `Quick, test_copy_shared_write_first);
    ("inverted table: alloc/lookup", `Quick, test_it_alloc_lookup);
    ("inverted table: exhaustion", `Quick, test_it_exhaustion);
    ("inverted table: free and reuse", `Quick, test_it_free_reuse);
    ("phys: local alloc", `Quick, test_pm_local_alloc);
    ("phys: out of memory", `Quick, test_pm_oom);
    ("phys: free", `Quick, test_pm_free);
    ("phys: double free", `Quick, test_pm_double_free);
    qtest prop_pm_lazy_eq_eager;
    ("phys: fallback on full module", `Quick, test_pm_prefer_fallback);
    ("phys: fallback avoids duplicate copies", `Quick, test_pm_fallback_avoids_duplicates);
    ("phys: page split equals divide and mod", `Quick, test_page_split);
  ]
