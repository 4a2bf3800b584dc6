(* §4 micro-measurements: the cost of the basic coherent-memory
   operations, measured on the simulated Butterfly Plus and compared to
   the ranges the paper reports. *)

open Exp_common
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Rights = Platinum_core.Rights
module Cmap = Platinum_core.Cmap
module Memtxn = Platinum_core.Memtxn

type env = { coh : Coherent.t; cm : Cmap.t }

let mk () =
  let config = Config.butterfly_plus ~nprocs:16 () in
  let policy = policy_named "platinum" config in
  let coh =
    Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
      ~frames_per_module:64 ()
  in
  let cm = Coherent.new_aspace coh in
  { coh; cm }

let bind ?home env vpage =
  let page = Coherent.new_cpage env.coh ?home () in
  Coherent.bind env.coh env.cm ~vpage page Rights.Read_write;
  page

let submit env ~now ~proc txn = Coherent.submit env.coh ~now ~proc ~cmap:env.cm txn

let warm env procs =
  ignore (bind env 99);
  List.iter (fun proc -> ignore (submit env ~now:0 ~proc (Memtxn.Read { vaddr = 99 * 1024 })))
    procs

let read env ~now ~proc = submit env ~now ~proc (Memtxn.Read { vaddr = 0 })
let write env ~now ~proc value = submit env ~now ~proc (Memtxn.Write { vaddr = 0; value })

let row what ours paper =
  Printf.printf "%-52s %10s %14s\n" what ours paper

let run (_ : scale) =
  section "Section 4 — cost of basic coherent-memory operations";
  row "operation" "measured" "paper";
  Printf.printf "%s\n" (String.make 78 '-');
  (* page copy *)
  let config = Config.butterfly_plus () in
  let copy = config.Config.page_words * config.Config.t_block_word in
  row "block transfer, one 4 KB page" (Printf.sprintf "%.2f ms" (ms_of copy)) "1.11 ms";
  (* read miss, non-modified, local vs remote metadata *)
  let env = mk () in
  let _ = bind ~home:1 env 0 in
  warm env [ 0; 1 ];
  ignore (read env ~now:0 ~proc:0);
  let fast = read env ~now:10_000_000 ~proc:1 in
  let env = mk () in
  let _ = bind ~home:7 env 0 in
  warm env [ 0; 1 ];
  ignore (read env ~now:0 ~proc:0);
  let slow = read env ~now:10_000_000 ~proc:1 in
  row "read miss, replicate non-modified page"
    (Printf.sprintf "%.2f-%.2f ms" (ms_of fast) (ms_of slow))
    "1.34-1.38 ms";
  (* read miss on a modified page, 1 restrict *)
  let env = mk () in
  let _ = bind ~home:1 env 0 in
  warm env [ 0; 1 ];
  ignore (write env ~now:0 ~proc:0 5);
  let idle = read env ~now:10_000_000 ~proc:1 in
  let env = mk () in
  let _ = bind ~home:1 env 0 in
  warm env [ 0; 1 ];
  ignore (write env ~now:0 ~proc:0 5);
  Machine.set_proc_busy_until (Coherent.machine env.coh) ~proc:0 10_400_000;
  let busy = read env ~now:10_000_000 ~proc:1 in
  row "read miss, replicate modified page (1 restrict)"
    (Printf.sprintf "%.2f-%.2f ms" (ms_of idle) (ms_of busy))
    "1.38-1.59 ms";
  (* write miss on present+ *)
  let env = mk () in
  let _ = bind ~home:1 env 0 in
  warm env [ 0; 1 ];
  ignore (write env ~now:0 ~proc:0 1);
  ignore (read env ~now:10_000_000 ~proc:1);
  let wm = write env ~now:20_000_000 ~proc:1 2 in
  row "write miss, present+ (1 invalidate, 1 page freed)"
    (Printf.sprintf "%.2f ms" (ms_of wm))
    "0.25-0.45 ms";
  (* incremental shootdown cost per extra processor *)
  let measure readers =
    let env = mk () in
    let _ = bind ~home:1 env 0 in
    ignore (write env ~now:0 ~proc:0 1);
    for r = 1 to readers do
      ignore (read env ~now:(r * 10_000_000) ~proc:r)
    done;
    write env ~now:1_000_000_000 ~proc:0 2
  in
  let deltas =
    List.map (fun r -> measure (r + 1) - measure r) [ 1; 3; 7; 11; 14 ]
  in
  let dmin = List.fold_left min max_int deltas and dmax = List.fold_left max 0 deltas in
  row "incremental cost per extra interrupted processor"
    (Printf.sprintf "%.0f-%.0f us" (float_of_int dmin /. 1e3) (float_of_int dmax /. 1e3))
    "<= 17 us";
  row "  of which: free one physical page"
    (Printf.sprintf "%.0f us" (float_of_int config.Config.page_free_ns /. 1e3))
    "~10 us";
  row "  of which: interrupt a processor"
    (Printf.sprintf "%.0f us" (float_of_int config.Config.ipi_send_ns /. 1e3))
    "~7 us (Mach on a Multimax: 55 us)";
  Printf.printf "\n";
  check_shape "non-modified replicate in [1.30, 1.42] ms" (fast >= 1_300_000 && slow <= 1_420_000);
  check_shape "modified replicate in [1.35, 1.62] ms" (idle >= 1_350_000 && busy <= 1_620_000);
  check_shape "present+ write miss in [0.24, 0.46] ms" (wm >= 240_000 && wm <= 460_000);
  check_shape "incremental cost <= 17 us" (dmax <= 17_000)
