(* The caller-slice contract of block transactions (Memtxn's buffer
   contract, DESIGN.md §4a), checked on every backend: the Butterfly Plus
   (Platsys over the coherent memory), the bus-based UMA machine
   (Uma_sys), and the hosted distributed kernel (Parkernel).

   The property is a differential.  One random program of block reads and
   writes runs twice on a fresh machine: once through the allocating
   calls ([block_read]/[block_write]), once through the slice calls
   ([block_read_into]/[block_write_sub]) on buffers pre-filled with a
   sentinel.  The two runs must observe the same words and the same
   [Api.now] delta for every operation — the slice calls are the same
   transactions, so they may not change simulated time — and the slice
   run must leave every buffer element outside [off, off+len) untouched.
   Out-of-range slices raise [Invalid_argument] with no simulated time
   charged, on both runs. *)

module Api = Platinum_kernel.Api
module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Parkernel = Platinum_scale.Parkernel

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

(* Two threads replay the program concurrently over one shared region, so
   the stream crosses replication and invalidation traffic. *)
let two_threads ~slices ops =
  let logs = [| ref []; ref [] |] in
  let main () =
    let region = Api.alloc ~page_aligned:true (4 * page_words) in
    let base target = region + (target * page_words) in
    let t = Api.spawn ~proc:1 (fun () -> run_ops ~slices ~base ops logs.(1)) in
    run_ops ~slices ~base ops logs.(0);
    Api.join t
  in
  (main, logs)

let on_platsys ~slices ops =
  let main, logs = two_threads ~slices ops in
  let config = Config.butterfly_plus ~nprocs:2 ~page_words () in
  ignore (Runner.time ~config ~frames_per_module:64 ~default_zone_pages:32 main);
  Array.to_list (Array.map (fun l -> List.rev !l) logs)

let on_uma ~slices ops =
  let main, logs = two_threads ~slices ops in
  ignore (Runner.time_uma ~nprocs:2 ~page_words main);
  Array.to_list (Array.map (fun l -> List.rev !l) logs)

(* Nodes 0 and 3 run the program against the rows homed at nodes 0, 1
   and 2: local homes, remote homes, and replica hits after the first
   remote read.  A distributed transaction must cover one to a page of
   words on a single page, so the generator keeps every run inside its
   row. *)
let on_parkernel ~slices ops =
  let logs = Array.init 8 (fun _ -> ref []) in
  let program ~node ~row ~rng:_ =
    if node = 0 || node = 3 then run_ops ~slices ~base:row ops logs.(node)
  in
  let config = Config.hierarchical ~cluster_size:4 ~page_words ~nodes:8 () in
  ignore (Parkernel.run ~check:true ~width:page_words ~config (Parkernel.Program program));
  Array.to_list (Array.map (fun l -> List.rev !l) logs)

let prop name ~span ~min_len run =
  QCheck.Test.make ~name ~count:40 (arb_prog ~span ~min_len) (fun ops ->
      check_pair (run ~slices:false ops) (run ~slices:true ops))

let suite =
  [
    qtest
      (prop "platsys: slice calls = allocating calls" ~span:(2 * page_words) ~min_len:0
         on_platsys);
    qtest (prop "uma: slice calls = allocating calls" ~span:(2 * page_words) ~min_len:0 on_uma);
    qtest
      (prop "parkernel: slice calls = allocating calls" ~span:page_words ~min_len:1
         on_parkernel);
  ]
