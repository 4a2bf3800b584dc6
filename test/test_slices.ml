(* The caller-slice contract of block transactions (Memtxn's buffer
   contract, DESIGN.md §4a), checked by one program on every backend:
   Platsys over the coherent memory on the Butterfly Plus and the
   bus-based UMA machine (Uma_sys), both through Runner.run_program, and
   the hosted distributed kernel (Parkernel).

   The property is a differential.  One random program of block reads and
   writes runs twice on a fresh machine: once through the allocating
   calls ([block_read]/[block_write]), once through the slice calls
   ([block_read_into]/[block_write_sub]) on buffers pre-filled with a
   sentinel.  The two runs must observe the same words and the same
   [Api.now] delta for every operation — the slice calls are the same
   transactions, so they may not change simulated time — and the slice
   run must leave every buffer element outside [off, off+len) untouched.
   Out-of-range slices raise [Invalid_argument] with no simulated time
   charged, on both runs.  Strided writes are checked on the same three
   backends below. *)

module Api = Platinum_kernel.Api
module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Parkernel = Platinum_scale.Parkernel
module Program = Platinum_kernel.Program

let qtest = QCheck_alcotest.to_alcotest
let page_words = 64
let sentinel = -7

(* [target] picks a base region (Parkernel: the row homed at node
   [target]); [v] is the word offset from it. *)
type op =
  | Read of { target : int; v : int; off : int; len : int; size : int }
  | Write of { target : int; v : int; off : int; len : int; size : int; seed : int }
  | Bad of { target : int; v : int; off : int; len : int; size : int }

let show_op = function
  | Read { target; v; off; len; size } -> Printf.sprintf "R%d@%d[%d+%d/%d]" target v off len size
  | Write { target; v; off; len; size; seed } ->
    Printf.sprintf "W%d@%d[%d+%d/%d]=%d" target v off len size seed
  | Bad { target; v; off; len; size } -> Printf.sprintf "X%d@%d[%d+%d/%d]" target v off len size

(* [span] bounds the words an op may cover from its base: two pages lets
   a run straddle a page boundary; one page keeps it on a single page.
   [min_len] is the shortest run generated. *)
let gen_op ~span ~min_len =
  QCheck.Gen.(
    let* target = int_bound 2 in
    let* len = int_range min_len (page_words + 8) in
    let len = min len span in
    let* v =
      (* half the ops end right around a page boundary *)
      oneof
        [
          int_bound (span - len);
          map (fun d -> max 0 (min (span - len) (page_words - d))) (int_bound 40);
        ]
    in
    let* off = int_bound 12 in
    let* slack = int_bound 12 in
    let size = off + len + slack in
    let* seed = int_bound 100_000 in
    frequency
      [
        (4, return (Read { target; v; off; len; size }));
        (4, return (Write { target; v; off; len; size; seed }));
        ( 1,
          (* negative offset, or a slice running past the buffer's end *)
          let* neg = bool in
          let off = if neg then -1 - off else off in
          let size = if neg then size else max 0 (off + len - 1 - slack) in
          return (Bad { target; v; off; len = max len 1; size }) );
      ])

let arb_prog ~span ~min_len =
  QCheck.make ~print:QCheck.Print.(list show_op)
    QCheck.Gen.(list_size (int_range 1 25) (gen_op ~span ~min_len))

type obs =
  | Got of int * int array  (* now delta, words read *)
  | Put of int  (* now delta *)
  | Refused of bool * bool * int * bool
      (* read raised, write raised, now delta, buffer untouched *)
  | Clobbered of int  (* a slice read wrote outside its range, at this index *)

let raises f = match f () with () -> false | exception Invalid_argument _ -> true

(* Run [ops] against the regions [base target], appending what it observes
   to [log] in program order, then read back every page the program can
   reach. *)
let run_ops ~slices ~base ops log =
  let note o = log := o :: !log in
  List.iter
    (fun op ->
      match op with
      | Read { target; v; off; len; size } ->
        let vaddr = base target + v in
        let t0 = Api.now () in
        if slices then begin
          let buf = Array.make size sentinel in
          Api.block_read_into vaddr buf ~off ~len;
          note (Got (Api.now () - t0, Array.sub buf off len));
          Array.iteri
            (fun i x -> if (i < off || i >= off + len) && x <> sentinel then note (Clobbered i))
            buf
        end
        else begin
          let got = Api.block_read vaddr len in
          note (Got (Api.now () - t0, got))
        end
      | Write { target; v; off; len; size; seed } ->
        let vaddr = base target + v in
        let data = Array.init len (fun i -> seed + i) in
        let t0 = Api.now () in
        if slices then begin
          let buf = Array.make size sentinel in
          Array.blit data 0 buf off len;
          Api.block_write_sub vaddr buf ~off ~len
        end
        else Api.block_write vaddr data;
        note (Put (Api.now () - t0))
      | Bad { target; v; off; len; size } ->
        let vaddr = base target + v in
        let buf = Array.make size sentinel in
        let t0 = Api.now () in
        let r = raises (fun () -> Api.block_read_into vaddr buf ~off ~len) in
        let w = raises (fun () -> Api.block_write_sub vaddr buf ~off ~len) in
        note (Refused (r, w, Api.now () - t0, Array.for_all (( = ) sentinel) buf)))
    ops;
  (* The final contents of all four pages, so every write is observed. *)
  for target = 0 to 3 do
    note (Got (0, Api.block_read (base target) page_words))
  done

(* The slice run must match the allocating run op for op, and every
   out-of-range slice must have been refused at no cost. *)
let check_pair (alloc : obs list list) (sliced : obs list list) =
  List.iter
    (List.iter (function
      | Refused (true, true, 0, true) -> ()
      | Refused (r, w, dt, untouched) ->
        QCheck.Test.fail_reportf
          "bad slice: read raised %b, write raised %b, charged %d ns, buffer untouched %b" r w
          dt untouched
      | Clobbered i -> QCheck.Test.fail_reportf "slice read wrote outside its range at %d" i
      | Got _ | Put _ -> ()))
    sliced;
  if alloc <> sliced then QCheck.Test.fail_report "slice run differs from the allocating run";
  true

(* Nodes 0 and 3 run the program against the rows homed at nodes 0, 1
   and 2: local homes, remote homes, and replica hits after the first
   remote read, with the two streams crossing each other's replication
   and invalidation traffic.  One program, run by each backend's driver. *)
let observe run ~slices ops =
  let logs = [| ref []; ref [] |] in
  let body ~node ~row ~rng:_ =
    if node = 0 || node = 3 then run_ops ~slices ~base:row ops logs.(node / 3)
  in
  run { Program.name = "slices"; image = []; body; verify = (fun _ -> true) };
  Array.to_list (Array.map (fun l -> List.rev !l) logs)

let on_platsys p =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words () in
  let s = Runner.make ~config ~frames_per_module:64 () in
  ignore (Runner.run_program ~seed:42L (Runner.Platinum s) p)

let on_uma p = ignore (Runner.run_program ~seed:42L (Runner.Uma { nprocs = 4; page_words }) p)

(* A distributed transaction must cover one to a page of words on a
   single page, so its generator keeps every run inside its row. *)
let on_parkernel p =
  let config = Config.hierarchical ~cluster_size:4 ~page_words ~nodes:8 () in
  ignore (Parkernel.run ~check:true ~config (Parkernel.Program p))

let prop name ~span ~min_len run =
  QCheck.Test.make ~name ~count:40 (arb_prog ~span ~min_len) (fun ops ->
      check_pair (observe run ~slices:false ops) (observe run ~slices:true ops))

(* --- strided writes ---

   Node 0 alone scatters random strided writes ([Api.write_stride]) over
   the same rows and reads each span back by block reads, before and
   after: every element must sit at its stride and every word between
   elements must be unchanged.  The hosted kernel refuses strided
   transactions, at no simulated cost and with memory untouched. *)

type scatter = { target : int; v : int; count : int; elem : int; stride : int; seed : int }

let show_scatter { target; v; count; elem; stride; seed } =
  Printf.sprintf "S%d@%d[%dx%d/%d]=%d" target v count elem stride seed

(* Every element within [span] words of its row's base. *)
let gen_scatter ~span =
  QCheck.Gen.(
    let* target = int_bound 2 in
    let* elem = int_range 1 4 in
    let* gap = int_bound 8 in
    let stride = elem + gap in
    let* count = int_range 1 (1 + ((span - elem) / stride)) in
    let* v = int_bound (span - (((count - 1) * stride) + elem)) in
    let* seed = int_bound 100_000 in
    return { target; v; count; elem; stride; seed })

(* (landed, now delta of the write, span read back as expected) per write *)
let scatter_log run ops =
  let log = ref [] in
  let body ~node ~row ~rng:_ =
    if node = 0 then
      List.iter
        (fun { target; v; count; elem; stride; seed } ->
          let vaddr = row target + v and extent = ((count - 1) * stride) + elem in
          let expect = Api.block_read vaddr extent in
          let data = Array.init (count * elem) (fun i -> seed + i) in
          let t0 = Api.now () in
          let landed =
            not (raises (fun () -> Api.write_stride ~elem_words:elem vaddr ~stride data))
          in
          let dt = Api.now () - t0 in
          if landed then
            Array.iteri (fun i x -> expect.((i / elem * stride) + (i mod elem)) <- x) data;
          log := (landed, dt, Api.block_read vaddr extent = expect) :: !log)
        ops
  in
  run { Program.name = "strides"; image = []; body; verify = (fun _ -> true) };
  List.rev !log

let prop_strides name ~span ~strided run =
  QCheck.Test.make ~name ~count:40
    (QCheck.make ~print:QCheck.Print.(list show_scatter)
       QCheck.Gen.(list_size (int_range 1 20) (gen_scatter ~span)))
    (fun ops ->
      List.for_all
        (fun (landed, dt, read_back) -> read_back && landed = strided && (strided || dt = 0))
        (scatter_log run ops))

(* --- the chunk cursor ---

   Memtxn's cursor against a word-by-word model: list every word the
   transaction moves as (element, address, slice index), in order; the
   chunks must be exactly the maximal groups of consecutive words that
   share an element and a page, each starting at its first word's slice
   index, and together they move [data_words].  The page sequence is also
   checked against the chunker the cursor replaced (element by element,
   split at page boundaries, consecutive duplicate pages elided), kept
   here as [old_pages]. *)

module Memtxn = Platinum_core.Memtxn

type shape = {
  s_vaddr : int;
  s_off : int;
  s_count : int;  (* elements; 1 for a block *)
  s_elem : int;  (* words per element; the length for a block *)
  s_stride : int;
  s_block : bool;
  s_write : bool;
  s_pw : int;
}

let show_shape s =
  Printf.sprintf "%s%s vaddr=%d off=%d count=%d elem=%d stride=%d page_words=%d"
    (if s.s_block then "block" else "stride")
    (if s.s_write then "_write" else "_read")
    s.s_vaddr s.s_off s.s_count s.s_elem s.s_stride s.s_pw

let gen_shape =
  QCheck.Gen.(
    let* s_pw = oneofl [ 1; 2; 3; 5; 8; 64 ] in
    let* s_vaddr = int_bound 300 in
    let* s_off = int_bound 5 in
    let* s_write = bool in
    let* s_block = bool in
    if s_block then
      let* len = int_bound 200 in
      return { s_vaddr; s_off; s_count = 1; s_elem = len; s_stride = len; s_block; s_write; s_pw }
    else
      let* s_count = int_bound 10 in
      let* s_elem = int_range 1 8 in
      let* gap = int_bound 20 in
      return
        { s_vaddr; s_off; s_count; s_elem; s_stride = s_elem + gap; s_block; s_write = true; s_pw })

let txn_of s =
  let buf = Array.make (s.s_off + (s.s_count * s.s_elem)) 0 in
  let vaddr = s.s_vaddr and off = s.s_off in
  match (s.s_block, s.s_write) with
  | true, false -> Memtxn.Block_read { vaddr; dst = buf; dst_off = off; len = s.s_elem }
  | true, true -> Memtxn.Block_write { vaddr; src = buf; src_off = off; len = s.s_elem }
  | false, _ ->
    Memtxn.Stride_write
      { vaddr; src = buf; src_off = off; count = s.s_count; elem_words = s.s_elem;
        stride = s.s_stride }

let cursor_chunks ~page_words txn =
  let c = Memtxn.make_chunk () in
  let out = ref [] in
  let note () = out := (c.Memtxn.c_vaddr, c.Memtxn.c_index, c.Memtxn.c_words) :: !out in
  if Memtxn.first c ~page_words txn then begin
    note ();
    while Memtxn.next c do
      note ()
    done
  end;
  List.rev !out

let model_chunks s =
  let words =
    List.concat
      (List.init s.s_count (fun k ->
           List.init s.s_elem (fun j ->
               (k, s.s_vaddr + (k * s.s_stride) + j, s.s_off + (k * s.s_elem) + j))))
  in
  let rec group acc = function
    | [] -> List.rev acc
    | (k, va, ix) :: rest -> (
      match acc with
      | (k', va0, ix0, n) :: acc'
        when k = k' && va = va0 + n && va / s.s_pw = va0 / s.s_pw ->
        group ((k', va0, ix0, n + 1) :: acc') rest
      | _ -> group ((k, va, ix, 1) :: acc) rest)
  in
  List.map (fun (_, va, ix, n) -> (va, ix, n)) (group [] words)

let old_pages s =
  let last = ref min_int and out = ref [] in
  for k = 0 to s.s_count - 1 do
    let base = s.s_vaddr + (k * s.s_stride) in
    let pos = ref 0 in
    while !pos < s.s_elem do
      let va = base + !pos in
      let len = min (s.s_pw - (va mod s.s_pw)) (s.s_elem - !pos) in
      if va / s.s_pw <> !last then begin
        last := va / s.s_pw;
        out := !last :: !out
      end;
      pos := !pos + len
    done
  done;
  List.rev !out

let rec dedup = function
  | a :: (b :: _ as rest) -> if a = b then dedup rest else a :: dedup rest
  | l -> l

let prop_cursor =
  QCheck.Test.make ~name:"memtxn: cursor chunks = word-by-word model" ~count:500
    (QCheck.make ~print:show_shape gen_shape) (fun s ->
      let txn = txn_of s in
      Memtxn.validate txn;
      let got = cursor_chunks ~page_words:s.s_pw txn in
      let want = model_chunks s in
      if got <> want then QCheck.Test.fail_report "chunks differ from the model";
      if List.fold_left (fun a (_, _, n) -> a + n) 0 got <> Memtxn.data_words txn then
        QCheck.Test.fail_report "chunks do not sum to data_words";
      let pages = dedup (List.map (fun (va, _, _) -> va / s.s_pw) got) in
      if pages <> old_pages s then QCheck.Test.fail_report "page sequence differs";
      true)

let test_cursor_words () =
  List.iter
    (fun txn ->
      Alcotest.(check (list (triple int int int)))
        "one one-word chunk at index 0" [ (77, 0, 1) ] (cursor_chunks ~page_words:8 txn))
    [
      Memtxn.Read { vaddr = 77 }; Memtxn.Write { vaddr = 77; value = 5 };
      Memtxn.Rmw { vaddr = 77; f = succ };
    ]

let suite =
  [
    qtest prop_cursor;
    ("memtxn: word transactions are one chunk", `Quick, test_cursor_words);
    qtest
      (prop "platsys: slice calls = allocating calls" ~span:(2 * page_words) ~min_len:0
         on_platsys);
    qtest (prop "uma: slice calls = allocating calls" ~span:(2 * page_words) ~min_len:0 on_uma);
    qtest
      (prop "parkernel: slice calls = allocating calls" ~span:page_words ~min_len:1
         on_parkernel);
    qtest
      (prop_strides "platsys: strided writes read back by block reads" ~span:(2 * page_words)
         ~strided:true on_platsys);
    qtest
      (prop_strides "uma: strided writes read back by block reads" ~span:(2 * page_words)
         ~strided:true on_uma);
    qtest
      (prop_strides "parkernel: strided writes refused at no cost" ~span:page_words
         ~strided:false on_parkernel);
  ]
