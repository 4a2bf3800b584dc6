(* The §4 micro-measurements as assertions: the composed fault-path
   latencies of our implementation must land in the ranges the paper
   reports for the Butterfly Plus.  (The constants are calibrated, so
   these tests validate the protocol path *structure* — which costs are
   paid on which transition — not silicon.) *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Rights = Platinum_core.Rights
module Cpage = Platinum_core.Cpage
module Cmap = Platinum_core.Cmap
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn

type env = { coh : Coherent.t; cm : Cmap.t }

(* Full-size pages: the absolute numbers of §4 are for 4 KB. *)
let mk ?(nprocs = 16) () =
  let config = Config.butterfly_plus ~nprocs () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let coh =
    Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
      ~frames_per_module:64 ()
  in
  let cm = Coherent.new_aspace coh in
  { coh; cm }

let bind_page ?home env vpage =
  let page = Coherent.new_cpage env.coh ?home () in
  Coherent.bind env.coh env.cm ~vpage page Rights.Read_write;
  page

(* Touch a scratch page so the processor has the address space active and
   its activation cost is not charged to the measured fault (the paper
   measures steady-state fault costs). *)
let warm_up env procs =
  let _ = bind_page env 99 in
  List.iter
    (fun proc -> ignore (Word.read env.coh ~now:0 ~proc ~cmap:env.cm ~vaddr:(99 * 1024)))
    procs

let ms x = int_of_float (x *. 1e6)

let in_range what lo hi v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f ms in [%.2f, %.2f]" what (float_of_int v /. 1e6) lo hi)
    true
    (v >= ms lo && v <= ms hi)

(* "The copying of data in a PLATINUM page migration operation ... takes
   1.11 ms for the default page size of 4K bytes." *)
let test_page_copy_time () =
  let env = mk () in
  let _ = bind_page env 0 in
  warm_up env [ 0; 1 ];
  (* Fill on proc 0, then measure only the copy component of proc 1's
     replication by subtracting the non-copy fault costs. *)
  ignore (Word.read env.coh ~now:0 ~proc:0 ~cmap:env.cm ~vaddr:0);
  let _, lat = Word.read env.coh ~now:10_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0 in
  let config = Coherent.config env.coh in
  let copy = config.Config.page_words * config.Config.t_block_word in
  in_range "4KB block transfer" 1.09 1.13 copy;
  Alcotest.(check bool) "replication dominated by the copy" true (lat > copy)

(* "The total time for a read miss that replicates a non-modified page
   ranges from 1.34 ms to 1.38 ms", depending on kernel data locality. *)
let test_read_miss_nonmodified () =
  (* Local Cpage metadata. *)
  let env = mk () in
  let _ = bind_page ~home:1 env 0 in
  warm_up env [ 0; 1 ];
  ignore (Word.read env.coh ~now:0 ~proc:0 ~cmap:env.cm ~vaddr:0);
  let _, fast = Word.read env.coh ~now:10_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0 in
  in_range "read miss, local metadata" 1.32 1.36 fast;
  (* Remote metadata. *)
  let env = mk () in
  let _ = bind_page ~home:7 env 0 in
  warm_up env [ 0; 1 ];
  ignore (Word.read env.coh ~now:0 ~proc:0 ~cmap:env.cm ~vaddr:0);
  let _, slow = Word.read env.coh ~now:10_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0 in
  in_range "read miss, remote metadata" 1.36 1.40 slow;
  Alcotest.(check bool) "remote metadata costs more" true (slow > fast)

(* "A read miss that replicates a modified page takes from 1.38 ms to
   1.59 ms if only one processor has to be interrupted to restrict its
   mapping to read-only access." *)
let test_read_miss_modified () =
  let env = mk () in
  let _ = bind_page ~home:1 env 0 in
  warm_up env [ 0; 1 ];
  ignore
    (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 0; value = 5 }));
  let _, lat = Word.read env.coh ~now:10_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0 in
  in_range "read miss on modified, idle writer" 1.35 1.60 lat;
  (* A busy writer stretches the shootdown wait (the paper's upper end). *)
  let env = mk () in
  let _ = bind_page ~home:1 env 0 in
  warm_up env [ 0; 1 ];
  ignore
    (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 0; value = 5 }));
  Machine.set_proc_busy_until (Coherent.machine env.coh) ~proc:0 10_400_000;
  let _, busy = Word.read env.coh ~now:10_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0 in
  Alcotest.(check bool) "busy target is slower" true (busy > lat);
  in_range "read miss on modified, busy writer" 1.38 1.62 busy

(* "A write miss on a present+ page takes from 0.25 ms to 0.45 ms when
   only one processor has to be interrupted ... and one physical page is
   freed." *)
let test_write_miss_present_plus () =
  let env = mk () in
  let _ = bind_page ~home:1 env 0 in
  warm_up env [ 0; 1 ];
  ignore
    (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 0; value = 1 }));
  ignore (Word.read env.coh ~now:10_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0);
  (* proc 1 now upgrades its local copy: invalidate proc 0's translation
     and free proc 0's physical page. *)
  let lat =
    Coherent.submit env.coh ~now:20_000_000 ~proc:1 ~cmap:env.cm
      (Memtxn.Write { vaddr = 0; value = 2 })
  in
  in_range "write miss on present+" 0.25 0.45 lat

(* "For up to 16 processors, the incremental delay to the initiating
   processor of interrupting each additional processor ... is no more
   than 17 µs." *)
let test_incremental_shootdown_cost () =
  let measure readers =
    let env = mk () in
    let _ = bind_page ~home:1 env 0 in
    ignore
      (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 0; value = 1 }));
    for r = 1 to readers do
      ignore (Word.read env.coh ~now:(r * 10_000_000) ~proc:r ~cmap:env.cm ~vaddr:0)
    done;
    (* Writer collapses all replicas: one interrupt + one page free per
       reader. *)
    Coherent.submit env.coh ~now:1_000_000_000 ~proc:0 ~cmap:env.cm
      (Memtxn.Write { vaddr = 0; value = 2 })
  in
  let prev = ref (measure 1) in
  for readers = 2 to 15 do
    let lat = measure readers in
    let delta = lat - !prev in
    Alcotest.(check bool)
      (Printf.sprintf "incremental cost for reader %d = %.1f us <= 17 us" readers
         (float_of_int delta /. 1e3))
      true (delta <= 17_000);
    Alcotest.(check bool) "and it is not free" true (delta > 0);
    prev := lat
  done

(* Freeing a physical page uses one remote read and one write ≈ 10 µs;
   the IPI itself ≈ 7 µs.  Our configuration encodes both. *)
let test_cost_model_constants () =
  let config = Config.butterfly_plus () in
  Alcotest.(check int) "page free = 10 us" 10_000 config.Config.page_free_ns;
  Alcotest.(check int) "ipi = 7 us" 7_000 config.Config.ipi_send_ns;
  Alcotest.(check bool) "7 us beats Mach's 55 us on the Multimax" true
    (config.Config.ipi_send_ns < 55_000)

(* The frozen path avoids all of this: a fault on a frozen page is just a
   mapping operation, two orders of magnitude cheaper than replication. *)
let test_frozen_fault_is_cheap () =
  let env = mk () in
  let _ = bind_page ~home:1 env 0 in
  ignore
    (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 0; value = 1 }));
  ignore (Word.read env.coh ~now:1_000 ~proc:1 ~cmap:env.cm ~vaddr:0);
  ignore
    (Coherent.submit env.coh ~now:1_000_000 ~proc:0 ~cmap:env.cm
       (Memtxn.Write { vaddr = 0; value = 2 }));
  (* Within t1: this fault freezes the page and remote-maps. *)
  let _, freeze_fault = Word.read env.coh ~now:2_000_000 ~proc:1 ~cmap:env.cm ~vaddr:0 in
  Alcotest.(check bool) "freeze+remote-map ≤ 0.3 ms" true (freeze_fault <= 300_000);
  (* And a third processor touching the frozen page pays even less. *)
  let _, lat = Word.read env.coh ~now:3_000_000 ~proc:2 ~cmap:env.cm ~vaddr:0 in
  Alcotest.(check bool) "frozen fault ≤ 0.25 ms" true (lat <= 250_000)

let suite =
  [
    ("sec4: 4KB page copy ~ 1.11 ms", `Quick, test_page_copy_time);
    ("sec4: read miss, non-modified: 1.34-1.38 ms", `Quick, test_read_miss_nonmodified);
    ("sec4: read miss, modified: 1.38-1.59 ms", `Quick, test_read_miss_modified);
    ("sec4: write miss, present+: 0.25-0.45 ms", `Quick, test_write_miss_present_plus);
    ("sec4: incremental shootdown <= 17 us/proc", `Quick, test_incremental_shootdown_cost);
    ("sec4: cost-model constants", `Quick, test_cost_model_constants);
    ("sec4: frozen faults are cheap", `Quick, test_frozen_fault_is_cheap);
  ]
