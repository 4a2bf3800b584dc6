(* The coherence sanitizer (PR 3): the invariant catalogue, the runtime
   monitor and the bounded model checker.  The domain-safety lint is
   tested with the other typed-AST rules in test_ast_lint.ml. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Procset = Platinum_machine.Procset
module Frame = Platinum_phys.Frame
module Engine = Platinum_sim.Engine
module Ring = Platinum_sim.Ring
module Rights = Platinum_core.Rights
module Check = Platinum_core.Check
module Cpage = Platinum_core.Cpage
module Pmap = Platinum_core.Pmap
module Cmap = Platinum_core.Cmap
module Policy = Platinum_core.Policy
module Shootdown = Platinum_core.Shootdown
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Mc = Platinum_check.Mc
module Runner = Platinum_runner.Runner
module Kernel = Platinum_kernel.Kernel
module Api = Platinum_kernel.Api
module Addr_space = Platinum_vm.Addr_space

let qtest = QCheck_alcotest.to_alcotest

(* --- helpers --- *)

type env = {
  coh : Coherent.t;
  cm : Cmap.t;
}

let mk ?(nprocs = 4) ?(page_words = 8) ?(frames = 16) ?(monitored = false) () =
  let config = Config.butterfly_plus ~nprocs ~page_words () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let engine = Engine.create () in
  let machine = Machine.create config in
  let coh = Coherent.create machine ~engine ~policy ~frames_per_module:frames () in
  if monitored then Coherent.set_monitor coh (Some (Check.create_monitor ()));
  let cm = Coherent.new_aspace coh in
  { coh; cm }

let bind_pages env n =
  Array.init n (fun vpage ->
      let page = Coherent.new_cpage env.coh ~label:(Printf.sprintf "page%d" vpage) () in
      Coherent.bind env.coh env.cm ~vpage page Rights.Read_write;
      page)

let read env ?(now = 0) ~proc vaddr = Word.read env.coh ~now ~proc ~cmap:env.cm ~vaddr
let write env ?(now = 0) ~proc vaddr v =
  Coherent.submit env.coh ~now ~proc ~cmap:env.cm (Memtxn.Write { vaddr; value = v })

let frame ?(mem_module = 0) ?(index = 0) ?(words = 4) () =
  let f = Frame.create ~mem_module ~index ~words in
  Frame.fill_zero f;
  f

(* A consistent single-copy view to corrupt per test. *)
let base_view ?copies ?copy_mask ?(write_mapped = false)
    ?(frozen = false) () =
  let copies = match copies with Some c -> c | None -> [ frame () ] in
  let copy_mask =
    match copy_mask with
    | Some m -> m
    | None -> Procset.of_list (List.map Frame.mem_module copies)
  in
  { Check.pv_id = 7; pv_copies = copies; pv_copy_mask = copy_mask;
    pv_write_mapped = write_mapped; pv_frozen = frozen }

let expect_inv name view =
  match Check.check_page view with
  | Ok () -> Alcotest.failf "expected %s violation, page checked clean" name
  | Error f ->
    Alcotest.(check string) "invariant name" name f.Check.inv;
    Alcotest.(check bool) "message mentions the page" true
      (f.Check.cpage = Some view.Check.pv_id);
    (* the rendered message carries name and citation *)
    let msg = Check.render f in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "render has invariant name" true (contains msg name);
    Alcotest.(check bool) "render has citation" true (contains msg f.Check.cite)

(* --- the page-level invariant catalogue: each failure mode, by message --- *)

let test_clean_views () =
  List.iter
    (fun v ->
      match Check.check_page v with
      | Ok () -> ()
      | Error f -> Alcotest.failf "clean view rejected: %s" (Check.render f))
    [
      base_view ~copies:[] ();
      base_view ();
      base_view ~write_mapped:true ();
      base_view ~copies:[ frame ~mem_module:0 (); frame ~mem_module:1 () ] ();
      base_view ~frozen:true ();
    ]

let test_mask_list_agreement () =
  expect_inv "mask-list-agreement" (base_view ~copy_mask:(Procset.of_list [ 1 ]) ());
  expect_inv "mask-list-agreement" (base_view ~copy_mask:(Procset.of_list [ 0; 1 ]) ())

let test_one_copy_per_module () =
  expect_inv "one-copy-per-module"
    (base_view ~copies:[ frame ~mem_module:2 ~index:0 (); frame ~mem_module:2 ~index:1 () ]
       ~copy_mask:(Procset.of_list [ 2 ]) ())

let test_single_writer () =
  expect_inv "single-writer"
    (base_view ~copies:[ frame ~mem_module:0 (); frame ~mem_module:1 () ] ~write_mapped:true ())

let test_frozen_single_copy () =
  expect_inv "frozen-single-copy"
    (base_view ~copies:[ frame ~mem_module:0 (); frame ~mem_module:1 () ] ~frozen:true ())

let test_replica_coherence () =
  let f0 = frame ~mem_module:0 () and f1 = frame ~mem_module:1 () in
  Frame.set f1 2 42;
  expect_inv "replica-coherence"
    (base_view ~copies:[ f0; f1 ] ())

let test_catalogue_documented () =
  List.iter
    (fun pi ->
      Alcotest.(check bool)
        (pi.Check.pi_name ^ " documented") true
        (String.length pi.Check.pi_doc > 0 && String.length pi.Check.pi_cite > 0))
    Check.page_invariants

(* --- delegation: Cpage's checker IS the catalogue --- *)

let test_cpage_delegates () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~proc:1 0 in
  (* healthy page: both agree it is fine *)
  Alcotest.(check bool) "cpage ok" true (Cpage.check_invariants pages.(0) = Ok ());
  (* corrupt the copy mask: both notice, with the same structured fault *)
  let mask = pages.(0).Cpage.copy_mask in
  pages.(0).Cpage.copy_mask <- Procset.add 3 mask;
  (match Cpage.check_faults pages.(0) with
  | Ok () -> Alcotest.fail "corruption missed"
  | Error f ->
    Alcotest.(check string) "via the catalogue" "mask-list-agreement" f.Check.inv;
    (match Check.check_page (Cpage.to_view pages.(0)) with
    | Ok () -> Alcotest.fail "view checker disagrees"
    | Error f' -> Alcotest.(check string) "same fault" (Check.render f) (Check.render f')));
  pages.(0).Cpage.copy_mask <- mask

(* --- machine-wide structured faults --- *)

let test_cmap_refmask_pmap () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  (* claim proc 2 holds a translation it does not have *)
  (match Cmap.find env.cm ~vpage:0 with
  | None -> Alcotest.fail "unbound"
  | Some ce -> ce.Cmap.refmask <- Procset.add 2 ce.Cmap.refmask);
  match Coherent.check_faults env.coh with
  | None -> Alcotest.fail "corruption missed"
  | Some f -> Alcotest.(check string) "inv" "refmask-pmap-agreement" f.Check.inv

let test_cmap_stale_pmap_entry () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  (* a Pmap entry for a processor the refmask does not know about *)
  let e = Pmap.find (Cmap.pmap env.cm ~proc:0) ~vpage:0 in
  let { Pmap.frame; cpage; _ } = Option.get e in
  ignore (Pmap.install (Cmap.pmap env.cm ~proc:3) ~vpage:0 ~frame ~cpage ~write_ok:false);
  match Coherent.check_faults env.coh with
  | None -> Alcotest.fail "corruption missed"
  | Some f -> Alcotest.(check string) "inv" "refmask-pmap-agreement" f.Check.inv

let test_entry_page_agreement () =
  let env = mk () in
  let pages = bind_pages env 2 in
  let _ = write env ~proc:0 0 1 in
  (* reinstall proc 0's translation of vpage 0 with the right frame and
     rights but vpage 1's page: the hit path would read the wrong frozen
     bit and cachability *)
  let pmap = Cmap.pmap env.cm ~proc:0 in
  let { Pmap.frame; write_ok; _ } = Option.get (Pmap.find pmap ~vpage:0) in
  ignore (Pmap.install pmap ~vpage:0 ~frame ~cpage:pages.(1) ~write_ok);
  match Coherent.check_faults env.coh with
  | None -> Alcotest.fail "corruption missed"
  | Some f -> Alcotest.(check string) "inv" "entry-page-agreement" f.Check.inv

let test_replicas_read_only () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~now:10_000_000 ~proc:1 0 in
  (* two copies now; grant an illegal write translation *)
  (match Pmap.find (Cmap.pmap env.cm ~proc:0) ~vpage:0 with
  | None -> Alcotest.fail "no translation"
  | Some e -> e.Pmap.write_ok <- true);
  match Coherent.check_faults env.coh with
  | None -> Alcotest.fail "corruption missed"
  | Some f ->
    Alcotest.(check bool) "replicas imply read-only mappings" true
      (f.Check.inv = "replicas-read-only" || f.Check.inv = "write-flag-agreement")

(* Drop the Pmap entry behind the protocol's back, as a missed shootdown
   would: the ATC holds no copy of it, so the next read must fault again
   rather than hit a stale cached translation. *)
let test_stale_atc () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = read env ~proc:0 0 in
  let faults () = (Coherent.counters env.coh).Platinum_core.Counters.read_faults in
  let before = faults () in
  Pmap.remove (Cmap.pmap env.cm ~proc:0) ~vpage:0;
  (match Cmap.find env.cm ~vpage:0 with
  | None -> ()
  | Some ce -> ce.Cmap.refmask <- Procset.remove 0 ce.Cmap.refmask);
  let _ = read env ~proc:0 0 in
  Alcotest.(check int) "the read faults again" (before + 1) (faults ());
  Alcotest.(check bool) "and reinstalls a live translation" true
    (Pmap.mem (Cmap.pmap env.cm ~proc:0) ~vpage:0);
  Alcotest.(check bool) "clean" true (Coherent.check_faults env.coh = None)

let test_frozen_list_agreement () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  pages.(0).Cpage.frozen <- true (* frozen flag without list membership *);
  (match Coherent.check_faults env.coh with
  | None -> Alcotest.fail "corruption missed"
  | Some f -> Alcotest.(check string) "inv" "frozen-list-agreement" f.Check.inv);
  pages.(0).Cpage.frozen <- false

(* A frame owned by a page but in no directory: directory -> frame
   ownership holds for every copy, so only the count sees the leak. *)
let test_frame_accounting () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  Alcotest.(check bool) "clean before the leak" true (Coherent.check_faults env.coh = None);
  let phys = Coherent.phys env.coh in
  let leaked = Platinum_phys.Phys_mem.alloc phys ~mem_module:2 ~cpage:pages.(0).Cpage.id in
  (match Coherent.check_faults env.coh with
  | None -> Alcotest.fail "leak missed"
  | Some f -> Alcotest.(check string) "inv" "frame-accounting" f.Check.inv);
  Option.iter (Platinum_phys.Phys_mem.free phys) leaked;
  Alcotest.(check bool) "clean once freed" true (Coherent.check_faults env.coh = None)

(* --- the runtime monitor --- *)

let test_monitor_silent_on_healthy_run () =
  let env = mk ~monitored:true () in
  let _ = bind_pages env 2 in
  (* reads, writes, migration, replication, freeze, thaw, daemon *)
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~now:1_000_000 ~proc:1 0 in
  let _ = write env ~now:2_000_000 ~proc:1 0 2 in
  let _ = write env ~now:3_000_000 ~proc:2 8 3 in
  let _ = read env ~now:4_000_000 ~proc:3 8 in
  ignore (Coherent.advise env.coh ~now:5_000_000 ~proc:0 ~cmap:env.cm ~vpage:0 Coherent.Freeze);
  ignore (Coherent.advise env.coh ~now:6_000_000 ~proc:0 ~cmap:env.cm ~vpage:0 Coherent.Thaw);
  Coherent.thaw_all env.coh ~now:7_000_000;
  ignore (Coherent.unbind env.coh ~now:8_000_000 env.cm ~vpage:1);
  (* the trace recorded the activity *)
  match Coherent.monitor env.coh with
  | None -> Alcotest.fail "monitor not installed"
  | Some m -> Alcotest.(check bool) "trace non-empty" true (Check.trace m <> [])

let test_monitor_catches_seeded_mutation () =
  (* The satellite regression: with the deliberately broken transition
     (write-invalidate forgets to clear the reference mask), the monitor
     must raise on the very next sweep — and the violation must carry a
     replayable event prefix. *)
  let env = mk ~monitored:true () in
  let _ = bind_pages env 1 in
  Fun.protect
    ~finally:(fun () -> Shootdown.test_skip_refmask_clear := false)
    (fun () ->
      Shootdown.test_skip_refmask_clear := true;
      let _ = write env ~proc:0 0 1 in
      let _ = read env ~now:1_000_000 ~proc:1 0 in
      match write env ~now:2_000_000 ~proc:0 0 2 with
      | _ -> Alcotest.fail "seeded mutation not caught"
      | exception Check.Violation v ->
        Alcotest.(check string) "inv" "refmask-pmap-agreement" v.Check.v_fault.Check.inv;
        Alcotest.(check bool) "replayable prefix present" true (v.Check.v_trace <> []);
        let msg = Check.violation_message v in
        Alcotest.(check bool) "message cites the paper" true
          (String.length msg > 0 && v.Check.v_fault.Check.cite = "§3.1"))

let test_monitor_trace_is_bounded () =
  let m = Check.create_monitor () in
  for i = 1 to 200 do
    Check.note m ~now:i (Check.Request { proc = 0; aspace = 0; vpage = i; write = false })
  done;
  let tr = Check.trace m in
  Alcotest.(check int) "bounded" 128 (List.length tr);
  (* oldest first, and the oldest retained entry is #73 of 200 *)
  Alcotest.(check (list int)) "kept the newest, in order" (List.init 128 (fun i -> 73 + i))
    (List.map fst tr)

let test_ring () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  List.iter (fun i -> Ring.push r i) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "capped" 3 (Ring.length r);
  Alcotest.(check int) "total pushes counted" 5 (Ring.pushed r);
  Alcotest.(check (list int)) "oldest first" [ 3; 4; 5 ] (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r)

let test_env_enabled () =
  (* documented parsing: unset / "" / "0" are off, anything else is on.
     The one parser is exercised on every kind of value; the environment
     readers only on the current process state. *)
  let parse = Platinum_sim.Engine.checks_armed_by in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %s" (Option.value v ~default:"<unset>"))
        expected (parse v))
    [ (None, false); (Some "", false); (Some "0", false); (Some "1", true); (Some "yes", true) ];
  let expected = parse (Sys.getenv_opt "PLATINUM_CHECK") in
  Alcotest.(check bool) "env parsing" expected (Check.env_enabled ());
  Alcotest.(check bool) "shard windows parse alike" expected
    (Platinum_sim.Engine.env_checks_armed ())

(* --- shared-write: checked at the write, armed monitor or not --- *)

(* Plant the state §3.2 forbids in an unmonitored run: after a read
   replicates a written page, a write mapping of the new replica, whose
   buffer the writer's copy still shares.  The write stops the run, and
   [Runner.run] reports the named violation as the thread's failure. *)
let test_shared_write_stops_unmonitored_run () =
  let setup = Runner.make ~config:(Config.butterfly_plus ~nprocs:2 ()) () in
  let coh = setup.Runner.coherent in
  Coherent.set_monitor coh None;
  let cm = Addr_space.cmap setup.Runner.aspace in
  let pw = Coherent.page_words coh in
  let cpage = ref (-1) in
  let main () =
    let buf = Api.alloc ~page_aligned:true pw in
    let vpage = buf / pw in
    Api.write buf 1;
    Api.join
      (Api.spawn ~proc:1 (fun () ->
           ignore (Api.read buf);
           let page = (Option.get (Cmap.find cm ~vpage)).Cmap.cpage in
           Alcotest.(check int) "the read replicated the page" 2 (Cpage.ncopies page);
           cpage := page.Cpage.id;
           (Option.get (Pmap.find (Cmap.pmap cm ~proc:1) ~vpage)).Pmap.write_ok <- true;
           Api.write buf 2))
  in
  match Runner.run setup ~main with
  | _ -> Alcotest.fail "a write to a shared replica went unnoticed"
  | exception Kernel.Thread_failure (Frame.Shared_write { mem_module; owner; _ } as e) ->
    Alcotest.(check int) "the replica on the writer's module" 1 mem_module;
    Alcotest.(check int) "the page it backs" !cpage owner;
    let msg = Printexc.to_string e in
    Alcotest.(check bool) ("named: " ^ msg) true
      (String.starts_with ~prefix:(Printf.sprintf "cpage %d: shared-write" owner) msg)

(* --- unbacked-frame-read: a mapped frame that lost its buffer --- *)

(* Free the reader's replica behind the protocol's back, as a
   use-after-free would: the frame drops its share of the buffer while
   still mapped, and the next read through the mapping names the
   violation instead of failing on a bare index. *)
let test_unbacked_read_stops_unmonitored_run () =
  let setup = Runner.make ~config:(Config.butterfly_plus ~nprocs:2 ()) () in
  let coh = setup.Runner.coherent in
  Coherent.set_monitor coh None;
  let cm = Addr_space.cmap setup.Runner.aspace in
  let pw = Coherent.page_words coh in
  let main () =
    let buf = Api.alloc ~page_aligned:true pw in
    let vpage = buf / pw in
    Api.write buf 1;
    Api.join
      (Api.spawn ~proc:1 (fun () ->
           ignore (Api.read buf);
           let frame = (Option.get (Pmap.find (Cmap.pmap cm ~proc:1) ~vpage)).Pmap.frame in
           Frame.set_owner frame None;
           ignore (Api.read (buf + 1))))
  in
  match Runner.run setup ~main with
  | _ -> Alcotest.fail "a read of a frame with no buffer went unnoticed"
  | exception Kernel.Thread_failure (Frame.Unbacked_read { mem_module; owner; _ } as e) ->
    Alcotest.(check int) "the replica on the reader's module" 1 mem_module;
    Alcotest.(check int) "a freed frame" (-1) owner;
    let msg = Printexc.to_string e in
    Alcotest.(check bool) ("named: " ^ msg) true
      (String.starts_with ~prefix:"cpage -1: unbacked-frame-read" msg)

(* --- the model checker --- *)

let test_mc_replay_deterministic () =
  let ops = [ Mc.Write { proc = 0; page = 0 }; Mc.Read { proc = 1; page = 0 };
              Mc.Freeze { page = 0 }; Mc.Daemon_thaw; Mc.Write { proc = 1; page = 0 } ]
  in
  let replay () = Mc.replay ~policy:"platinum" ~nprocs:2 ~npages:1 ops in
  match replay (), replay () with
  | Ok a, Ok b -> Alcotest.(check string) "same fingerprint" a b
  | Error e, _ | _, Error e -> Alcotest.failf "replay failed: %s" e

let test_mc_explores_clean () =
  let r = Mc.explore ~policy:"platinum" ~nprocs:2 ~npages:1 ~depth:4 () in
  Alcotest.(check int) "no violations" 0 r.Mc.total_violations;
  Alcotest.(check bool) "non-trivial state count" true (r.Mc.states > 10);
  Alcotest.(check bool) "not truncated" true (not r.Mc.truncated);
  (* depth-0 state is counted *)
  Alcotest.(check int) "root state" 1 r.Mc.states_at_depth.(0)

let test_mc_catches_mutation () =
  let r = Mc.explore ~mutate:true ~policy:"platinum" ~nprocs:2 ~npages:1 ~depth:4 () in
  Alcotest.(check bool) "seeded bug found" true (r.Mc.total_violations > 0);
  Alcotest.(check bool) "counterexamples reported" true (r.Mc.violations <> []);
  (* and the knob was restored *)
  Alcotest.(check bool) "knob restored" false !Shootdown.test_skip_refmask_clear;
  (* every counterexample replays to the same violation *)
  List.iter
    (fun cx ->
      Fun.protect
        ~finally:(fun () -> Shootdown.test_skip_refmask_clear := false)
        (fun () ->
          Shootdown.test_skip_refmask_clear := true;
          match Mc.replay ~policy:"platinum" ~nprocs:2 ~npages:1 cx.Mc.cx_ops with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "counterexample [%s] no longer fails"
                      (Mc.ops_to_string cx.Mc.cx_ops)))
    r.Mc.violations

(* Bolosky stops migrating a written page after 4 migrations, so the
   state after 1 migration and the state after 3 must not be merged, even
   though the page, its copy and its data look the same. *)
let test_mc_fingerprints_policy_input () =
  let w proc = Mc.Write { proc; page = 0 } in
  let fp ops =
    match Mc.replay ~policy:"bolosky" ~nprocs:2 ~npages:1 ops with
    | Ok fp -> fp
    | Error e -> Alcotest.failf "replay failed: %s" e
  in
  Alcotest.(check bool) "1 and 3 migrations fingerprint apart" false
    (String.equal (fp [ w 1; w 0 ]) (fp [ w 1; w 0; w 1; w 0 ]))

(* Every policy, at a depth the suite can afford; bench/main.exe mc goes
   deeper.  The state and edge counts are pinned exactly: a change to how
   [Mc] drives the system (or to the protocol) that reaches one state or
   one transition more or less shows here. *)
let mc_at_depth_4 =
  [
    ("platinum", 68, 28); ("platinum-thaw", 61, 28); ("always-replicate", 64, 26);
    ("static-place", 58, 25); ("uniform-system", 51, 25); ("migrate-only", 65, 23);
    ("bolosky", 83, 27); ("competitive", 85, 25);
  ]

let test_mc_every_policy_clean () =
  Alcotest.(check (list string)) "a pinned count per policy" Policy.default_names
    (List.map (fun (p, _, _) -> p) mc_at_depth_4);
  List.iter
    (fun (policy, states, edges) ->
      let r = Mc.explore ~policy ~nprocs:2 ~npages:1 ~depth:4 () in
      Alcotest.(check int) (policy ^ ": no violations") 0 r.Mc.total_violations;
      Alcotest.(check int) (policy ^ ": reachable states") states r.Mc.states;
      Alcotest.(check int) (policy ^ ": protocol transitions") edges (List.length r.Mc.edges);
      Alcotest.(check bool) (policy ^ ": not truncated") true (not r.Mc.truncated))
    mc_at_depth_4

(* QCheck: on random request sequences the monitor stays silent and reads
   are sequentially consistent (Mc.replay checks both; 2 procs, 1 page). *)
let prop_random_sequences_clean =
  let op_gen =
    let cat = Array.of_list (Mc.catalogue ~nprocs:2 ~npages:1) in
    QCheck.Gen.(map (fun i -> cat.(i)) (int_bound (Array.length cat - 1)))
  in
  let ops_arb =
    QCheck.make
      ~print:(fun ops -> Mc.ops_to_string ops)
      QCheck.Gen.(list_size (int_bound 12) op_gen)
  in
  QCheck.Test.make ~name:"monitor silent + reads SC on random sequences" ~count:100 ops_arb
    (fun ops ->
      match Mc.replay ~policy:"platinum" ~nprocs:2 ~npages:1 ops with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "violation on [%s]: %s" (Mc.ops_to_string ops) e)

let suite =
  [
    ("catalogue: clean views pass", `Quick, test_clean_views);
    ("catalogue: mask-list-agreement", `Quick, test_mask_list_agreement);
    ("catalogue: one-copy-per-module", `Quick, test_one_copy_per_module);
    ("catalogue: single-writer", `Quick, test_single_writer);
    ("catalogue: frozen-single-copy", `Quick, test_frozen_single_copy);
    ("catalogue: replica-coherence", `Quick, test_replica_coherence);
    ("catalogue: every invariant documented", `Quick, test_catalogue_documented);
    ("delegation: Cpage checks via the catalogue", `Quick, test_cpage_delegates);
    ("machine: refmask without Pmap entry", `Quick, test_cmap_refmask_pmap);
    ("machine: Pmap entry outside refmask", `Quick, test_cmap_stale_pmap_entry);
    ("machine: Pmap entry carries another page", `Quick, test_entry_page_agreement);
    ("machine: replicas imply read-only mappings", `Quick, test_replicas_read_only);
    ("machine: stale ATC translation", `Quick, test_stale_atc);
    ("machine: frozen-list agreement", `Quick, test_frozen_list_agreement);
    ("machine: frame accounting", `Quick, test_frame_accounting);
    ("monitor: silent on a healthy run", `Quick, test_monitor_silent_on_healthy_run);
    ("shared-write: stops an unmonitored run", `Quick, test_shared_write_stops_unmonitored_run);
    ("unbacked-frame-read: stops an unmonitored run", `Quick,
     test_unbacked_read_stops_unmonitored_run);
    ("monitor: catches the seeded mutation", `Quick, test_monitor_catches_seeded_mutation);
    ("monitor: trace is bounded", `Quick, test_monitor_trace_is_bounded);
    ("monitor: ring buffer", `Quick, test_ring);
    ("monitor: PLATINUM_CHECK parsing", `Quick, test_env_enabled);
    ("mc: replay is deterministic", `Quick, test_mc_replay_deterministic);
    ("mc: clean exploration", `Quick, test_mc_explores_clean);
    ("mc: mutation is caught", `Quick, test_mc_catches_mutation);
    ("mc: the policy's page input is fingerprinted", `Quick, test_mc_fingerprints_policy_input);
    ("mc: every policy explores clean", `Quick, test_mc_every_policy_clean);
    qtest prop_random_sequences_clean;
  ]
