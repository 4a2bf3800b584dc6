(* Tests for the coherent memory system: the four-state protocol, the
   shootdown mechanism, replication policies, freeze/thaw, and the
   machine-wide invariants. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Procset = Platinum_machine.Procset
module Engine = Platinum_sim.Engine
module Rng = Platinum_sim.Rng
module Rights = Platinum_core.Rights
module Cpage = Platinum_core.Cpage
module Pmap = Platinum_core.Pmap
module Atc = Platinum_core.Atc
module Cmap = Platinum_core.Cmap
module Policy = Platinum_core.Policy
module Fault = Platinum_core.Fault
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Defrost = Platinum_core.Defrost
module Counters = Platinum_core.Counters

let qtest = QCheck_alcotest.to_alcotest

type env = {
  config : Config.t;
  coh : Coherent.t;
  cm : Cmap.t;
  engine : Engine.t;
}

let mk ?(nprocs = 4) ?(page_words = 8) ?(frames = 16) ?(local_caches = false) ?policy () =
  let config = Config.butterfly_plus ~nprocs ~page_words () in
  let config = if local_caches then Config.with_local_caches ~words:32 ~line_words:2 config else config in
  let policy =
    match policy with
    | Some p -> p
    | None ->
      Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let engine = Engine.create () in
  let machine = Machine.create config in
  let coh = Coherent.create machine ~engine ~policy ~frames_per_module:frames () in
  let cm = Coherent.new_aspace coh in
  { config; coh; cm; engine }

(* Bind [n] fresh pages at vpages 0..n-1 with read-write rights. *)
let bind_pages env n =
  Array.init n (fun vpage ->
      let page = Coherent.new_cpage env.coh ~label:(Printf.sprintf "page%d" vpage) () in
      Coherent.bind env.coh env.cm ~vpage page Rights.Read_write;
      page)

let read env ?(now = 0) ~proc vaddr = Word.read env.coh ~now ~proc ~cmap:env.cm ~vaddr
let write env ?(now = 0) ~proc vaddr v =
  Coherent.submit env.coh ~now ~proc ~cmap:env.cm (Memtxn.Write { vaddr; value = v })

let check_inv env =
  match Coherent.check_invariants env.coh with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant violated: " ^ e)

let state = Alcotest.testable Cpage.pp_state ( = )

(* --- basic transitions (Figure 4) --- *)

let test_empty_read () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let v, lat = read env ~proc:0 0 in
  Alcotest.(check int) "zero filled" 0 v;
  Alcotest.check state "empty -> present1" Cpage.Present1 (Cpage.state pages.(0));
  Alcotest.(check int) "one copy" 1 (Cpage.ncopies pages.(0));
  Alcotest.(check bool) "copy is local" true (Cpage.has_copy_on pages.(0) 0);
  Alcotest.(check bool) "fault latency charged" true (lat > 100_000);
  check_inv env

let test_empty_write () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:2 3 77 in
  Alcotest.check state "empty -> modified" Cpage.Modified (Cpage.state pages.(0));
  Alcotest.(check bool) "local to writer" true (Cpage.has_copy_on pages.(0) 2);
  let v, _ = read env ~proc:2 3 in
  Alcotest.(check int) "reads back" 77 v;
  check_inv env

let test_replication () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 1 5 in
  let v, _ = read env ~proc:1 1 in
  Alcotest.(check int) "replica data" 5 v;
  Alcotest.check state "modified -> present+ via replication" Cpage.Present_plus
    (Cpage.state pages.(0));
  Alcotest.(check int) "two copies" 2 (Cpage.ncopies pages.(0));
  Alcotest.(check int) "replications counted" 1 pages.(0).Cpage.stats.Cpage.replications;
  Alcotest.(check int) "restriction counted" 1 pages.(0).Cpage.stats.Cpage.restrictions;
  check_inv env

let test_replication_not_a_protocol_invalidation () =
  (* Restricting the writer during replication must not mark the page as
     write-shared, or pivot rows would freeze (§4.2/§5.1). *)
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 9 in
  let _ = read env ~proc:1 0 in
  let _ = read env ~proc:2 0 in
  Alcotest.(check bool) "not frozen" false pages.(0).Cpage.frozen;
  Alcotest.(check int) "three copies" 3 (Cpage.ncopies pages.(0));
  Alcotest.(check bool) "no protocol invalidation recorded" true
    (pages.(0).Cpage.last_protocol_inval = Cpage.never_invalidated);
  check_inv env

let test_present1_to_modified_cheap () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _, _ = read env ~proc:0 0 in
  (* Same processor upgrades to write: no shootdown, no copy. *)
  let before = (Coherent.counters env.coh).Counters.shootdowns in
  let lat = write env ~proc:0 0 1 in
  Alcotest.check state "present1 -> modified" Cpage.Modified (Cpage.state pages.(0));
  Alcotest.(check int) "no shootdown" before (Coherent.counters env.coh).Counters.shootdowns;
  Alcotest.(check bool) "cheap (no block copy)" true (lat < 500_000);
  check_inv env

let test_write_collapses_replicas () =
  let env = mk ~nprocs:4 () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  List.iter (fun p -> ignore (read env ~proc:p 0)) [ 1; 2; 3 ];
  Alcotest.(check int) "four copies" 4 (Cpage.ncopies pages.(0));
  (* Writer writes again: all other copies invalidated and freed. *)
  let _ = write env ~proc:0 1 42 in
  Alcotest.check state "back to modified" Cpage.Modified (Cpage.state pages.(0));
  Alcotest.(check int) "single copy" 1 (Cpage.ncopies pages.(0));
  Alcotest.(check bool) "kept the writer's copy" true (Cpage.has_copy_on pages.(0) 0);
  Alcotest.(check bool) "invalidation recorded" true
    (pages.(0).Cpage.last_protocol_inval <> Cpage.never_invalidated);
  (* Readers refault and see fresh data. *)
  let v, _ = read env ~proc:2 1 in
  Alcotest.(check int) "fresh value" 42 v;
  check_inv env

let test_migration_on_write () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 2 10 in
  (* Another processor writes much later (outside t1): migration. *)
  let t = 100_000_000 in
  let _ = write env ~now:t ~proc:3 2 11 in
  Alcotest.check state "still modified" Cpage.Modified (Cpage.state pages.(0));
  Alcotest.(check bool) "moved to writer" true (Cpage.has_copy_on pages.(0) 3);
  Alcotest.(check bool) "left the old home" false (Cpage.has_copy_on pages.(0) 0);
  Alcotest.(check int) "migration counted" 1 pages.(0).Cpage.stats.Cpage.migrations;
  let v, _ = read env ~now:(t + 1) ~proc:3 2 in
  Alcotest.(check int) "value moved with the page" 11 v;
  (* The other words survived the migration copy. *)
  let v0, _ = read env ~now:(t + 2) ~proc:3 3 in
  Alcotest.(check int) "rest of page intact" 0 v0;
  check_inv env

let test_freeze_on_write_sharing () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = write env ~now:0 ~proc:0 0 1 in
  let _ = read env ~now:1000 ~proc:1 0 in
  (* Writer invalidates the replica... *)
  let _ = write env ~now:2000 ~proc:0 0 2 in
  (* ...and the reader comes right back: within t1, so freeze. *)
  let v, _ = read env ~now:3000 ~proc:1 0 in
  Alcotest.(check int) "remote read sees the data" 2 v;
  Alcotest.(check bool) "frozen" true pages.(0).Cpage.frozen;
  Alcotest.(check int) "one copy" 1 (Cpage.ncopies pages.(0));
  Alcotest.(check int) "remote map counted" 1 pages.(0).Cpage.stats.Cpage.remote_maps;
  Alcotest.(check bool) "on the frozen list" true
    (List.memq pages.(0) (Coherent.frozen_pages env.coh));
  check_inv env

let freeze_a_page env page =
  ignore (write env ~now:0 ~proc:0 0 1);
  ignore (read env ~now:1000 ~proc:1 0);
  ignore (write env ~now:2000 ~proc:0 0 2);
  ignore (read env ~now:3000 ~proc:1 0);
  Alcotest.(check bool) "setup: frozen" true page.Cpage.frozen

let test_frozen_full_rights () =
  let env = mk () in
  let pages = bind_pages env 1 in
  freeze_a_page env pages.(0);
  (* The remote mapping was granted full rights: a write by the reader
     does not fault again. *)
  let faults_before = pages.(0).Cpage.stats.Cpage.write_faults in
  let _ = write env ~now:4000 ~proc:1 0 3 in
  Alcotest.(check int) "no new fault" faults_before pages.(0).Cpage.stats.Cpage.write_faults;
  let v, _ = read env ~now:5000 ~proc:0 0 in
  Alcotest.(check int) "write went to the single copy" 3 v;
  check_inv env

let test_thaw_allows_replication () =
  let env = mk () in
  let pages = bind_pages env 1 in
  freeze_a_page env pages.(0);
  let t = 200_000_000 in
  Coherent.thaw_page env.coh ~now:t ~by_daemon:false pages.(0);
  Alcotest.(check bool) "unfrozen" false pages.(0).Cpage.frozen;
  Alcotest.check state "single read-only copy" Cpage.Present1 (Cpage.state pages.(0));
  (* Next reader replicates: the thaw didn't count as interference. *)
  let _ = read env ~now:(t + 1000) ~proc:1 0 in
  Alcotest.(check int) "replicated after thaw" 2 (Cpage.ncopies pages.(0));
  Alcotest.(check int) "thaw counted" 1 pages.(0).Cpage.stats.Cpage.thaws;
  check_inv env

let test_defrost_daemon () =
  let env = mk () in
  let pages = bind_pages env 1 in
  freeze_a_page env pages.(0);
  Defrost.install env.coh env.engine;
  (* Run past one defrost period (t2 = 1 s). *)
  Engine.run_until env.engine 1_100_000_000;
  Alcotest.(check bool) "daemon thawed the page" false pages.(0).Cpage.frozen;
  Alcotest.(check int) "frozen list empty" 0 (List.length (Coherent.frozen_pages env.coh));
  check_inv env

(* --- the adaptive defrost variant (per-page t2, §4.2's sketch) --- *)

let adaptive =
  Defrost.Adaptive { initial_t2 = 1_000_000; max_t2 = 8_000_000; refreeze_window = 500_000 }

(* A single-copy page the daemon can freeze directly. *)
let one_copy_page env pages =
  ignore (write env ~proc:0 0 1);
  Alcotest.(check int) "setup: one copy" 1 (Cpage.ncopies pages.(0))

let test_defrost_adaptive_arms_and_thaws () =
  let env = mk () in
  let pages = bind_pages env 1 in
  Defrost.install ~mode:adaptive env.coh env.engine;
  one_copy_page env pages;
  Coherent.freeze_page env.coh ~now:10_000 pages.(0);
  Alcotest.(check int) "first freeze arms the initial t2" 1_000_000
    pages.(0).Cpage.adaptive_t2;
  (* The per-page timer fires at freeze + t2, well before the periodic
     daemon's 1 s sweep would have. *)
  Engine.run_until env.engine 2_000_000;
  Alcotest.(check bool) "per-page timer thawed it" false pages.(0).Cpage.frozen;
  Alcotest.(check int) "frozen list empty" 0 (List.length (Coherent.frozen_pages env.coh));
  check_inv env

let test_defrost_adaptive_backoff () =
  let env = mk () in
  let pages = bind_pages env 1 in
  Defrost.install ~mode:adaptive env.coh env.engine;
  one_copy_page env pages;
  Coherent.freeze_page env.coh ~now:0 pages.(0);
  Engine.run_until env.engine 1_200_000;
  Alcotest.(check bool) "setup: first thaw happened" false pages.(0).Cpage.frozen;
  (* Refreeze inside the refreeze window: the thaw was wrong, back off. *)
  Coherent.freeze_page env.coh ~now:(pages.(0).Cpage.last_thaw_at + 100_000) pages.(0);
  Alcotest.(check int) "refreeze inside the window doubles t2" 2_000_000
    pages.(0).Cpage.adaptive_t2;
  (* Keep refreezing hot: the back-off is capped at max_t2. *)
  for _ = 1 to 5 do
    Coherent.thaw_page env.coh ~now:(Engine.now env.engine) ~by_daemon:false pages.(0);
    Coherent.freeze_page env.coh ~now:(pages.(0).Cpage.last_thaw_at + 1) pages.(0)
  done;
  Alcotest.(check int) "doubling caps at max_t2" 8_000_000 pages.(0).Cpage.adaptive_t2;
  check_inv env

let test_defrost_adaptive_slow_refreeze_keeps_t2 () =
  let env = mk () in
  let pages = bind_pages env 1 in
  Defrost.install ~mode:adaptive env.coh env.engine;
  one_copy_page env pages;
  Coherent.freeze_page env.coh ~now:0 pages.(0);
  Engine.run_until env.engine 1_200_000;
  (* A refreeze long after the thaw is a new phase, not churn: no back-off. *)
  Coherent.freeze_page env.coh ~now:(pages.(0).Cpage.last_thaw_at + 600_000) pages.(0);
  Alcotest.(check int) "refreeze outside the window keeps t2" 1_000_000
    pages.(0).Cpage.adaptive_t2;
  check_inv env

let test_defrost_adaptive_stale_timer () =
  let env = mk () in
  let pages = bind_pages env 1 in
  Defrost.install ~mode:adaptive env.coh env.engine;
  one_copy_page env pages;
  (* First freeze arms a wake-up at t=1ms for frozen_at=0... *)
  Coherent.freeze_page env.coh ~now:0 pages.(0);
  (* ...but the page thaws early and refreezes (new frozen_at, its own
     later wake-up at ~2.2ms after the doubled t2). *)
  Coherent.thaw_page env.coh ~now:100_000 ~by_daemon:false pages.(0);
  Coherent.freeze_page env.coh ~now:200_000 pages.(0);
  Alcotest.(check int) "quick refreeze doubled t2" 2_000_000 pages.(0).Cpage.adaptive_t2;
  (* The stale first timer fires at 1ms and must not thaw the new freeze. *)
  Engine.run_until env.engine 1_500_000;
  Alcotest.(check bool) "stale timer left the refreeze alone" true pages.(0).Cpage.frozen;
  (* The refreeze's own timer eventually does. *)
  Engine.run_until env.engine 3_000_000;
  Alcotest.(check bool) "the refreeze's own timer thawed it" false pages.(0).Cpage.frozen;
  check_inv env

let test_thaw_on_fault_policy () =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:8 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = true })
  in
  let env = mk ~policy () in
  let pages = bind_pages env 1 in
  freeze_a_page env pages.(0);
  (* A fault long after the window thaws and replicates. *)
  let t = 50_000_000 in
  let _ = read env ~now:t ~proc:2 0 in
  Alcotest.(check bool) "thawed by the fault" false pages.(0).Cpage.frozen;
  Alcotest.(check bool) "replicated" true (Cpage.ncopies pages.(0) >= 2);
  check_inv env

(* --- replication policies --- *)

let test_policy_static_place () =
  let env = mk ~policy:(Policy.make ~t1:0 Policy.Never_move) () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 5 in
  let v, _ = read env ~proc:3 0 in
  Alcotest.(check int) "remote read works" 5 v;
  Alcotest.(check int) "never replicates" 1 (Cpage.ncopies pages.(0));
  Alcotest.(check bool) "page stayed put" true (Cpage.has_copy_on pages.(0) 0);
  let _ = write env ~proc:3 1 6 in
  Alcotest.(check bool) "writes don't move it either" true (Cpage.has_copy_on pages.(0) 0);
  check_inv env

let test_policy_migrate_only () =
  let env = mk ~policy:(Policy.make ~t1:0 Policy.Migrate_only) () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 5 in
  let _ = read env ~proc:1 0 in
  Alcotest.(check int) "reads never replicate" 1 (Cpage.ncopies pages.(0));
  let _ = write env ~proc:1 0 6 in
  Alcotest.(check bool) "writes migrate" true (Cpage.has_copy_on pages.(0) 1);
  Alcotest.(check int) "still one copy" 1 (Cpage.ncopies pages.(0));
  check_inv env

let test_policy_bolosky () =
  let env = mk ~policy:(Policy.make ~t1:0 (Policy.Bolosky { max_migrations = 2 })) () in
  let pages = bind_pages env 2 in
  let pw = Coherent.page_words env.coh in
  (* Page 0 is never written: replicates freely. *)
  let _ = read env ~proc:0 0 in
  let _ = read env ~proc:1 0 in
  Alcotest.(check int) "read-only page replicates" 2 (Cpage.ncopies pages.(0));
  (* Page 1 is written: never replicated for reads, migrates at most twice. *)
  let _ = write env ~proc:0 pw 1 in
  let _ = read env ~proc:1 pw in
  Alcotest.(check int) "written page not replicated" 1 (Cpage.ncopies pages.(1));
  let _ = write env ~proc:1 pw 2 in
  let _ = write env ~proc:2 pw 3 in
  Alcotest.(check int) "two migrations allowed" 2 pages.(1).Cpage.stats.Cpage.migrations;
  let _ = write env ~proc:3 pw 4 in
  Alcotest.(check int) "third write froze in place" 2 pages.(1).Cpage.stats.Cpage.migrations;
  Alcotest.(check bool) "page stayed on proc 2's module" true (Cpage.has_copy_on pages.(1) 2);
  check_inv env

let test_policy_competitive () =
  let env = mk ~policy:(Policy.make ~t1:0 (Policy.Competitive { threshold = 3 })) () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 5 in
  (* First two remote readers are mapped remotely; the third miss pays
     for a replica. *)
  let _ = read env ~now:1_000 ~proc:1 0 in
  Alcotest.(check int) "first miss: remote" 1 (Cpage.ncopies pages.(0));
  let _ = read env ~now:2_000 ~proc:2 0 in
  Alcotest.(check int) "second miss: still remote" 1 (Cpage.ncopies pages.(0));
  let _ = read env ~now:3_000 ~proc:3 0 in
  Alcotest.(check int) "third miss: replicated" 2 (Cpage.ncopies pages.(0));
  check_inv env

let test_policy_always_replicate () =
  let env = mk ~policy:(Policy.make ~t1:0 Policy.Always_replicate) () in
  let pages = bind_pages env 1 in
  (* Ping-pong writes migrate every time; never freezes. *)
  for round = 0 to 5 do
    ignore (write env ~now:(round * 100) ~proc:(round mod 2) 0 round)
  done;
  Alcotest.(check bool) "never frozen" false pages.(0).Cpage.stats.Cpage.was_frozen;
  Alcotest.(check bool) "migrated repeatedly" true (pages.(0).Cpage.stats.Cpage.migrations >= 4);
  check_inv env

let test_policy_of_string () =
  List.iter
    (fun name ->
      match Policy.of_string ~t1:1000 name with
      | Ok p -> Alcotest.(check string) "round-trips" name (Policy.name p)
      | Error e -> Alcotest.fail e)
    Policy.default_names;
  Alcotest.(check bool) "unknown rejected" true
    (match Policy.of_string ~t1:0 "nonsense" with Error _ -> true | Ok _ -> false)

(* A frozen page keeps one copy under every policy: after an advised
   freeze, reads from the other processors remote-map it (or, for a
   policy that thaws on fault, thaw it first) and never replicate it.
   Each policy runs on a page that was written and on one that was only
   read, with the monitor armed; the cells that raise are collected. *)
let test_frozen_single_copy_every_policy () =
  let raised =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun written ->
            let policy = Result.get_ok (Policy.of_string ~t1:1_000 name) in
            let env = mk ~policy () in
            Coherent.set_monitor env.coh (Some (Platinum_core.Check.create_monitor ()));
            let pages = bind_pages env 1 in
            if written then ignore (write env ~proc:0 0 1 : int)
            else ignore (read env ~proc:0 0 : int * int);
            ignore
              (Coherent.advise env.coh ~now:1_000 ~proc:0 ~cmap:env.cm ~vpage:0
                 Coherent.Freeze
                : int);
            let cell = Printf.sprintf "%s/%s" name (if written then "written" else "read-only") in
            match
              List.iter
                (fun proc ->
                  ignore (read env ~now:(proc * 10_000) ~proc 0 : int * int);
                  if pages.(0).Cpage.frozen && Cpage.ncopies pages.(0) <> 1 then
                    Alcotest.failf "%s: frozen page has %d copies" cell (Cpage.ncopies pages.(0)))
                [ 1; 2; 3 ];
              check_inv env
            with
            | () -> None
            | exception Platinum_core.Check.Violation v ->
              Some (cell ^ ": " ^ v.Platinum_core.Check.v_fault.Platinum_core.Check.inv))
          [ true; false ])
      Policy.default_names
  in
  Alcotest.(check (list string)) "no cell breaks an invariant" [] raised

(* The verdict is data: [decide] reads the page and leaves it as it was;
   acting on [Freeze]/[Thaw] is the fault handler's job. *)
let decision =
  Alcotest.testable
    (fun fmt d ->
      Format.pp_print_string fmt
        (match d with
        | Policy.Replicate -> "Replicate"
        | Policy.Remote_map -> "Remote_map"
        | Policy.Freeze -> "Freeze"
        | Policy.Thaw -> "Thaw"))
    ( = )

let test_policy_verdicts () =
  let t1 = 1_000 and inval = 10_000 in
  let within = inval + t1 - 1 and after = inval + t1 in
  let platinum = Policy.make ~t1 (Policy.Platinum { thaw_on_fault = false }) in
  let thawing = Policy.make ~t1 (Policy.Platinum { thaw_on_fault = true }) in
  let page = Cpage.create ~id:0 ~home:0 () in
  page.Cpage.last_protocol_inval <- inval;
  let verdict p ~now = Policy.decide p ~now Policy.Write_fault page in
  let unmodified ~frozen =
    Alcotest.(check bool) "frozen flag untouched" frozen page.Cpage.frozen;
    Alcotest.(check int) "no freeze recorded" 0 page.Cpage.stats.Cpage.freezes;
    Alcotest.(check int) "no thaw recorded" 0 page.Cpage.stats.Cpage.thaws;
    Alcotest.(check int) "last_protocol_inval untouched" inval page.Cpage.last_protocol_inval
  in
  Alcotest.check decision "within t1: freeze" Policy.Freeze (verdict platinum ~now:within);
  Alcotest.check decision "within t1, thaw variant: freeze" Policy.Freeze
    (verdict thawing ~now:within);
  unmodified ~frozen:false;
  Alcotest.check decision "after t1: replicate" Policy.Replicate (verdict platinum ~now:after);
  page.Cpage.frozen <- true;
  Alcotest.check decision "frozen: remote map" Policy.Remote_map (verdict platinum ~now:within);
  Alcotest.check decision "frozen, after t1: stays remote for the daemon to thaw"
    Policy.Remote_map (verdict platinum ~now:after);
  Alcotest.check decision "frozen within t1, thaw variant: remote map" Policy.Remote_map
    (verdict thawing ~now:within);
  Alcotest.check decision "frozen after t1, thaw variant: thaw" Policy.Thaw
    (verdict thawing ~now:after);
  unmodified ~frozen:true

let test_policy_kind_flags () =
  List.iter
    (fun (kind, defrost, scatter) ->
      let p = Policy.make ~t1:1_000 kind in
      Alcotest.(check bool) (Policy.name p ^ ": uses_defrost") defrost (Policy.uses_defrost p);
      Alcotest.(check bool)
        (Policy.name p ^ ": scatter_placement")
        scatter (Policy.scatter_placement p))
    [
      (Policy.Platinum { thaw_on_fault = false }, true, false);
      (Policy.Platinum { thaw_on_fault = true }, true, false);
      (Policy.Always_replicate, false, false);
      (Policy.Never_move, false, false);
      (Policy.Migrate_only, false, false);
      (Policy.Bolosky { max_migrations = 4 }, false, false);
      (Policy.Uniform_system, false, true);
      (Policy.Competitive { threshold = 3 }, false, false);
    ]

(* --- shootdown mechanics --- *)

let test_shootdown_targets_only_holders () =
  let env = mk ~nprocs:4 () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~proc:1 0 in
  (* proc 2 and 3 never touched the page: the collapse below must not
     interrupt them (refmask-driven shootdown, §3.1). *)
  let ints_before = (Coherent.counters env.coh).Counters.interrupts in
  let _ = write env ~proc:0 0 2 in
  let ints = (Coherent.counters env.coh).Counters.interrupts - ints_before in
  Alcotest.(check int) "exactly one processor interrupted" 1 ints;
  ignore pages;
  check_inv env

let test_shootdown_inactive_deferred () =
  let env = mk ~nprocs:4 () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~proc:1 0 in
  (* proc 1 deactivates the address space (switches to another). *)
  let other = Coherent.new_aspace env.coh in
  ignore (Coherent.activate env.coh ~now:0 ~proc:1 ~aspace:(Cmap.aspace other));
  let def_before = (Coherent.counters env.coh).Counters.deferred_updates in
  let ints_before = (Coherent.counters env.coh).Counters.interrupts in
  let _ = write env ~proc:0 0 2 in
  Alcotest.(check int) "no interrupt for inactive holder" ints_before
    (Coherent.counters env.coh).Counters.interrupts;
  Alcotest.(check bool) "applied as deferred update" true
    ((Coherent.counters env.coh).Counters.deferred_updates > def_before);
  ignore pages;
  check_inv env

(* One invalidation of a page bound in two address spaces posts one Cmap
   message per space: the holder with the space active takes an IPI, the
   holder that switched away gets a deferred update. *)
let test_shootdown_counts_across_spaces () =
  let env = mk ~nprocs:4 () in
  let page = Coherent.new_cpage env.coh () in
  let cm2 = Coherent.new_aspace env.coh in
  Coherent.bind env.coh env.cm ~vpage:0 page Rights.Read_write;
  Coherent.bind env.coh cm2 ~vpage:5 page Rights.Read_write;
  let pw = Coherent.page_words env.coh in
  let _ = write env ~proc:0 0 1 in
  let _ = Word.read env.coh ~now:0 ~proc:1 ~cmap:cm2 ~vaddr:(5 * pw) in
  let _ = read env ~proc:2 0 in
  (* proc 2 still holds its translation in the first space, inactive. *)
  ignore (Coherent.activate env.coh ~now:0 ~proc:2 ~aspace:(Cmap.aspace cm2));
  Alcotest.(check int) "three copies" 3 (Cpage.ncopies page);
  let c = Coherent.counters env.coh in
  let messages = c.Counters.messages
  and interrupts = c.Counters.interrupts
  and deferred = c.Counters.deferred_updates in
  let _ = write env ~proc:0 0 2 in
  Alcotest.(check int) "one message per address space" (messages + 2) c.Counters.messages;
  Alcotest.(check int) "active holder interrupted" (interrupts + 1) c.Counters.interrupts;
  Alcotest.(check int) "inactive holder deferred" (deferred + 1) c.Counters.deferred_updates;
  check_inv env

let test_refmask_tracks_pmaps () =
  let env = mk ~nprocs:4 () in
  let pages = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  List.iter (fun p -> ignore (read env ~proc:p 0)) [ 1; 2 ];
  let ce = Option.get (Cmap.find env.cm ~vpage:0) in
  Alcotest.(check (list int)) "refmask = touchers" [ 0; 1; 2 ] (Procset.to_list ce.Cmap.refmask);
  let _ = write env ~proc:0 0 2 in
  Alcotest.(check (list int)) "collapse clears other holders" [ 0 ]
    (Procset.to_list ce.Cmap.refmask);
  ignore pages;
  check_inv env

(* --- multiple address spaces --- *)

let test_multi_aspace_sharing () =
  let env = mk ~nprocs:4 () in
  let page = Coherent.new_cpage env.coh ~label:"shared" () in
  let cm2 = Coherent.new_aspace env.coh in
  Coherent.bind env.coh env.cm ~vpage:0 page Rights.Read_write;
  Coherent.bind env.coh cm2 ~vpage:5 page Rights.Read_only;
  let pw = Coherent.page_words env.coh in
  ignore pw;
  let _ =
    Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 2; value = 99 })
  in
  (* The second space reads the same coherent page at a different vaddr. *)
  let v, _ = Word.read env.coh ~now:1000 ~proc:1 ~cmap:cm2 ~vaddr:(5 * pw + 2) in
  Alcotest.(check int) "shared data visible across spaces" 99 v;
  (* A write in space 1 shoots down the mapping in space 2. *)
  let _ =
    Coherent.submit env.coh ~now:100_000_000 ~proc:0 ~cmap:env.cm
      (Memtxn.Write { vaddr = 2; value = 100 })
  in
  let v2, _ =
    Word.read env.coh ~now:100_001_000 ~proc:1 ~cmap:cm2 ~vaddr:((5 * pw) + 2)
  in
  Alcotest.(check int) "space 2 sees the new value" 100 v2;
  check_inv env

let test_multi_aspace_protection () =
  let env = mk () in
  let page = Coherent.new_cpage env.coh () in
  let cm2 = Coherent.new_aspace env.coh in
  Coherent.bind env.coh env.cm ~vpage:0 page Rights.Read_write;
  Coherent.bind env.coh cm2 ~vpage:0 page Rights.Read_only;
  ignore
    (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm (Memtxn.Write { vaddr = 0; value = 1 }));
  Alcotest.(check bool) "read-only space cannot write" true
    (try
       ignore
         (Coherent.submit env.coh ~now:0 ~proc:1 ~cmap:cm2 (Memtxn.Write { vaddr = 0; value = 2 }));
       false
     with Fault.Protection_violation _ -> true)

(* An unknown address space must be rejected before [activate] touches
   any state: the processor stays active in its current space, so a later
   invalidation still interrupts it. *)
let test_activate_unknown_aspace () =
  let env = mk ~nprocs:4 () in
  let _ = bind_pages env 1 in
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~proc:1 0 in
  let aspace = Cmap.aspace env.cm in
  let active p = Atc.active_aspace (Coherent.atc env.coh ~proc:p) in
  Alcotest.(check (list (option int))) "both active" [ Some aspace; Some aspace ]
    [ active 0; active 1 ];
  Alcotest.(check bool) "unknown space rejected" true
    (try
       ignore (Coherent.activate env.coh ~now:0 ~proc:1 ~aspace:99);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (option int)) "proc 1 still active" (Some aspace) (active 1);
  let c = Coherent.counters env.coh in
  let interrupts = c.Counters.interrupts and deferred = c.Counters.deferred_updates in
  let _ = write env ~proc:0 0 2 in
  Alcotest.(check int) "holder interrupted" (interrupts + 1) c.Counters.interrupts;
  Alcotest.(check int) "nothing deferred" deferred c.Counters.deferred_updates;
  check_inv env

let test_unmapped_raises () =
  let env = mk () in
  Alcotest.(check bool) "unmapped fault escapes to VM" true
    (try
       ignore (read env ~proc:0 0);
       false
     with Fault.Unmapped { vpage = 0; _ } -> true)

(* --- ATC behaviour --- *)

let test_atc_hit_free () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = read env ~proc:0 0 in
  (* Issue the second read after the first fault's module occupancy has
     drained, so only the translation path is measured. *)
  let _, lat = read env ~now:10_000_000 ~proc:0 1 in
  Alcotest.(check int) "ATC hit costs only the access" env.config.Config.t_local_word lat

let test_atc_flush_on_switch () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = read env ~proc:0 0 in
  (* Activate another space on proc 0, then come back: ATC was flushed,
     so the next access reloads from the Pmap. *)
  let other = Coherent.new_aspace env.coh in
  ignore (Coherent.activate env.coh ~now:0 ~proc:0 ~aspace:(Cmap.aspace other));
  let reloads_before = (Coherent.counters env.coh).Counters.atc_reloads in
  let _, _lat = read env ~proc:0 0 in
  Alcotest.(check int) "pmap reload, not a fault" (reloads_before + 1)
    (Coherent.counters env.coh).Counters.atc_reloads

(* --- block operations --- *)

let test_block_ops_cross_pages () =
  let env = mk ~page_words:8 () in
  let pages = bind_pages env 3 in
  let data = Array.init 20 (fun i -> i * 7) in
  let src_txn = Memtxn.Block_write { vaddr = 3; src = data; src_off = 0; len = 20 } in
  ignore (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm src_txn);
  let got = Array.make 20 0 in
  let dst_txn = Memtxn.Block_read { vaddr = 3; dst = got; dst_off = 0; len = 20 } in
  ignore (Coherent.submit env.coh ~now:1000 ~proc:1 ~cmap:env.cm dst_txn);
  Alcotest.(check (array int)) "round trip across pages" data got;
  Alcotest.(check int) "three pages touched" 3
    (Array.fold_left (fun acc p -> acc + if Cpage.ncopies p > 0 then 1 else 0) 0 pages);
  check_inv env

let test_rmw () =
  let env = mk () in
  let _ = bind_pages env 1 in
  let _ = write env ~proc:0 0 10 in
  ignore
    (Coherent.submit env.coh ~now:0 ~proc:0 ~cmap:env.cm
       (Memtxn.Rmw { vaddr = 0; f = (fun v -> v + 5) }));
  Alcotest.(check int) "returns old" 10 !(Coherent.fp_value_cell env.coh);
  let v, _ = read env ~proc:0 0 in
  Alcotest.(check int) "applied" 15 v

(* --- resource exhaustion --- *)

let test_oom_falls_back_to_remote () =
  (* 2 processors, 1 frame each.  Two pages fill the machine; a third
     page cannot replicate and the protocol must fall back to remote
     mappings rather than dying. *)
  let env = mk ~nprocs:2 ~frames:1 () in
  let pages = bind_pages env 2 in
  let pw = Coherent.page_words env.coh in
  let _ = write env ~proc:0 0 1 in
  let _ = write env ~proc:1 pw 2 in
  (* proc 1 reads page 0: no frame anywhere for a replica. *)
  let v, _ = read env ~proc:1 0 in
  Alcotest.(check int) "remote fallback works" 1 v;
  Alcotest.(check int) "no replica" 1 (Cpage.ncopies pages.(0));
  check_inv env

(* --- invariant checker sanity --- *)

let test_invariant_checker_detects_corruption () =
  let env = mk () in
  let pages = bind_pages env 1 in
  let _ = read env ~proc:0 0 in
  pages.(0).Cpage.copy_mask <- Procset.add 3 pages.(0).Cpage.copy_mask (* lie *);
  match Coherent.check_faults env.coh with
  | Some f ->
    Alcotest.(check string) "corruption detected" "mask-list-agreement" f.Platinum_core.Check.inv
  | None -> Alcotest.fail "corruption missed"

let test_cpage_invariants_unit () =
  let p = Cpage.create ~id:0 ~home:0 () in
  Alcotest.(check bool) "fresh page ok" true (Cpage.check_invariants p = Ok ());
  let f = Platinum_phys.Frame.create ~mem_module:1 ~index:0 ~words:4 in
  Cpage.add_copy p f;
  Alcotest.(check bool) "present1 ok" true (Cpage.check_invariants p = Ok ());
  Alcotest.(check bool) "double add same module rejected" true
    (try
       Cpage.add_copy p (Platinum_phys.Frame.create ~mem_module:1 ~index:1 ~words:4);
       false
     with Invalid_argument _ -> true)

(* --- randomized protocol-vs-oracle property --- *)

(* Random word reads/writes from random processors against a flat oracle
   array; after every operation the data must agree and all machine-wide
   invariants must hold.  This is the strongest single check on the
   protocol: any stale replica, lost invalidation, or wrong-copy write
   shows up as a value mismatch. *)
let run_protocol_oracle ?(local_caches = false) ~policy_kind ~seed ~ops () =
  let npages = 4 and page_words = 8 and nprocs = 4 in
  let policy = Policy.make ~t1:5_000 policy_kind in
  let env = mk ~nprocs ~page_words ~frames:8 ~local_caches ~policy () in
  let _pages = bind_pages env npages in
  let oracle = Array.make (npages * page_words) 0 in
  let rng = Rng.create (Int64.of_int seed) in
  let now = ref 0 in
  let ok = ref true in
  for op = 1 to ops do
    now := !now + Rng.int rng 4_000;
    let proc = Rng.int rng nprocs in
    let vaddr = Rng.int rng (npages * page_words) in
    match Rng.int rng 4 with
    | 0 ->
      let v, _ = read env ~now:!now ~proc vaddr in
      if v <> oracle.(vaddr) then ok := false
    | 1 ->
      let v = op in
      ignore (write env ~now:!now ~proc vaddr v);
      oracle.(vaddr) <- v
    | 2 ->
      ignore
        (Coherent.submit env.coh ~now:!now ~proc ~cmap:env.cm
           (Memtxn.Rmw { vaddr; f = (fun v -> v + 1) }));
      if !(Coherent.fp_value_cell env.coh) <> oracle.(vaddr) then ok := false;
      oracle.(vaddr) <- oracle.(vaddr) + 1
    | _ ->
      let len = 1 + Rng.int rng (min 12 ((npages * page_words) - vaddr)) in
      let got = Array.make len 0 in
      let txn = Memtxn.Block_read { vaddr; dst = got; dst_off = 0; len } in
      ignore (Coherent.submit env.coh ~now:!now ~proc ~cmap:env.cm txn);
      if got <> Array.sub oracle vaddr len then ok := false
  done;
  (* Global accounting: no physical frame may leak (the sweep's
     frame-accounting invariant), and the freeze ledger must balance. *)
  let counters = Coherent.counters env.coh in
  let frozen_now = List.length (Coherent.frozen_pages env.coh) in
  !ok
  && Coherent.check_invariants env.coh = Ok ()
  && counters.Counters.freezes - counters.Counters.thaws = frozen_now

let prop_protocol_oracle ?local_caches kind name =
  QCheck.Test.make ~name ~count:30 QCheck.(int_bound 1_000_000) (fun seed ->
      run_protocol_oracle ?local_caches ~policy_kind:kind ~seed ~ops:300 ())

(* --- §7 local caches --- *)

let test_cached_read_hit_is_fast () =
  let env = mk ~local_caches:true () in
  let _ = bind_pages env 1 in
  let _ = read env ~proc:0 0 in
  (* vaddr 4 is on a different 2-word line than vaddr 0. *)
  let _, miss = read env ~now:10_000_000 ~proc:0 4 in
  let _, hit = read env ~now:20_000_000 ~proc:0 4 in
  Alcotest.(check int) "first access misses the cache" env.config.Config.t_local_word miss;
  Alcotest.(check int) "second hits at t_cache_hit" env.config.Config.t_cache_hit hit

let test_cached_frozen_page_not_cached () =
  let env = mk ~local_caches:true () in
  let pages = bind_pages env 1 in
  freeze_a_page env pages.(0);
  (* Remote reader of the frozen page: never a cache hit. *)
  let _, l1 = read env ~now:10_000_000 ~proc:1 0 in
  let _, l2 = read env ~now:20_000_000 ~proc:1 0 in
  Alcotest.(check bool) "still paying remote latency" true
    (l1 >= env.config.Config.t_remote_read_word && l2 >= env.config.Config.t_remote_read_word)

let test_cached_no_stale_read_after_upgrade () =
  let env = mk ~local_caches:true () in
  let _ = bind_pages env 1 in
  (* proc 1 reads (fills its cache from the zero-filled page)... *)
  let _ = read env ~proc:1 0 in
  let v0, _ = read env ~now:10_000_000 ~proc:1 0 in
  Alcotest.(check int) "cached zero" 0 v0;
  (* ...proc 1's copy is the one proc 0 maps too (same single copy);
     proc 0 upgrades and writes.  proc 1 must not see its stale line. *)
  let _ = write env ~now:100_000_000 ~proc:0 0 99 in
  let v, _ = read env ~now:100_001_000 ~proc:1 0 in
  Alcotest.(check int) "fresh value after upgrade" 99 v;
  check_inv env

let test_cached_word_write_invalidates_peers () =
  let env = mk ~local_caches:true ~policy:(Policy.make ~t1:0 Policy.Never_move) () in
  let _ = bind_pages env 1 in
  (* Static placement: one copy on proc 0's module, everyone maps it. *)
  let _ = write env ~proc:0 0 1 in
  let _ = read env ~now:10_000_000 ~proc:0 0 in
  let _ = read env ~now:20_000_000 ~proc:0 0 in
  (* A write from proc 1 through its remote mapping must invalidate
     proc 0's cached line. *)
  let _ = write env ~now:30_000_000 ~proc:1 0 2 in
  let v, _ = read env ~now:40_000_000 ~proc:0 0 in
  Alcotest.(check int) "no stale cached word" 2 v;
  check_inv env

(* Figure 4, explored: the atlas of every (state, frozen) transition the
   model checker takes under the paper's policy (3 processors, 1 page,
   depth 5), pinned edge for edge, so a change to the fault handler that
   alters the protocol's shape shows here.  DESIGN.md classifies the edges the
   paper's diagram does not draw. *)
let figure4_edges =
  [
    "empty --[read: read-fault]--> present1";
    "empty --[freeze advice: freeze]--> present1/frozen";
    "empty --[write: write-fault]--> modified";
    "present1 --[read: read-fault]--> present1";
    "present1 --[freeze advice: freeze]--> present1/frozen";
    "present1 --[read: read-fault, replicate]--> present+";
    "present1 --[write: write-fault]--> modified";
    "present1 --[write: write-fault, invalidate, migrate]--> modified";
    "present1 --[read: read-fault, freeze, remote-map]--> modified/frozen";
    "present1 --[write: write-fault, freeze, remote-map]--> modified/frozen";
    "present1/frozen --[daemon: thaw]--> present1";
    "present1/frozen --[thaw advice: thaw]--> present1";
    "present1/frozen --[read: read-fault]--> present1/frozen";
    "present1/frozen --[read: read-fault, remote-map]--> modified/frozen";
    "present1/frozen --[write: write-fault]--> modified/frozen";
    "present1/frozen --[write: write-fault, remote-map]--> modified/frozen";
    "present+ --[freeze advice: freeze]--> present1/frozen";
    "present+ --[read: read-fault]--> present+";
    "present+ --[read: read-fault, replicate]--> present+";
    "present+ --[write: write-fault, invalidate]--> modified";
    "present+ --[write: write-fault, invalidate, migrate]--> modified";
    "modified --[freeze advice: freeze]--> present1/frozen";
    "modified --[read: read-fault, restrict, replicate]--> present+";
    "modified --[write: write-fault, invalidate, migrate]--> modified";
    "modified --[read: read-fault, freeze, remote-map]--> modified/frozen";
    "modified --[write: write-fault, freeze, remote-map]--> modified/frozen";
    "modified/frozen --[daemon: thaw]--> present1";
    "modified/frozen --[thaw advice: thaw]--> present1";
    "modified/frozen --[read: read-fault]--> modified/frozen";
    "modified/frozen --[read: read-fault, remote-map]--> modified/frozen";
    "modified/frozen --[write: write-fault]--> modified/frozen";
    "modified/frozen --[write: write-fault, remote-map]--> modified/frozen";
  ]

(* The ten edges the paper draws, each as the explored edge it is. *)
let paper_edges =
  [
    ("read miss (zero fill)", "empty --[read: read-fault]--> present1");
    ("write miss (zero fill)", "empty --[write: write-fault]--> modified");
    ("read miss (replicate)", "present1 --[read: read-fault, replicate]--> present+");
    ( "read miss (replicate, restrict writer)",
      "modified --[read: read-fault, restrict, replicate]--> present+" );
    ("write hit upgrade (no invalidation)", "present1 --[write: write-fault]--> modified");
    ("write miss (migrate)", "modified --[write: write-fault, invalidate, migrate]--> modified");
    ("write miss (invalidate replicas)", "present+ --[write: write-fault, invalidate]--> modified");
    ( "read miss on frozen page (remote map)",
      "modified/frozen --[read: read-fault, remote-map]--> modified/frozen" );
    ("defrost daemon thaw", "modified/frozen --[daemon: thaw]--> present1");
    ("further replication (present+)", "present+ --[read: read-fault, replicate]--> present+");
  ]

let test_explored_figure4 () =
  let module Mc = Platinum_check.Mc in
  let got =
    List.map (Format.asprintf "%a" Mc.pp_edge)
      (Mc.explore ~policy:"platinum" ~nprocs:3 ~npages:1 ~depth:5 ()).Mc.edges
  in
  List.iter
    (fun (name, edge) ->
      Alcotest.(check bool) ("paper edge present: " ^ name) true (List.mem edge got))
    paper_edges;
  Alcotest.(check (list string)) "the explored edge set" figure4_edges got

(* --- plan-level facts: every Fault.plan, along every outcome --- *)

(* Walk every path through a plan (each allocation succeeds or falls back,
   each abortable copy lands or aborts), tracking the copy count, whether
   the page is frozen and whether an invalidating shootdown has run, and
   return what breaks the protocol's plan-level facts. *)
let plan_violations ~write ~copies ~frozen steps =
  let bad = ref [] in
  let fail msg = bad := msg :: !bad in
  let rec walk ~copies ~frozen ~invalidated ~maps = function
    | [] -> if maps <> 1 then fail (Printf.sprintf "a path ends after %d map steps" maps)
    | step :: rest -> (
      if maps > 0 then fail "a step follows the map";
      let go ?(copies = copies) ?(frozen = frozen) ?(invalidated = invalidated) ?(maps = maps)
          steps =
        walk ~copies ~frozen ~invalidated ~maps steps
      in
      match (step : Fault.step) with
      | Shootdown { directive = Cmap.Invalidate; _ } -> go ~invalidated:true rest
      | Shootdown { directive = Cmap.Restrict_to_read; _ } | Settle | Note_remote -> go rest
      | Alloc { place; fallback } ->
        go rest;
        if fallback = [] then begin
          if place <> Fault.First_touch then fail "only first touch may raise on allocation"
        end
        else go fallback
      | Zero_fill _ -> go ~copies:(copies + 1) rest
      | Copy { abortable; on_abort } ->
        if write && not invalidated then fail "migrates before an invalidating shootdown";
        if frozen then fail "copies a frozen page";
        go ~copies:(copies + 1) rest;
        if abortable then go on_abort
      | Free_copies _ ->
        if not invalidated then fail "frees copies before an invalidating shootdown";
        go ~copies:(min copies 1) rest
      | Freeze _ -> go ~frozen:(frozen || copies = 1) rest
      | Thaw -> go ~frozen:false rest
      | Map m ->
        (* A remote mapping of a frozen single copy gets full rights. *)
        let writable = write || (m = Fault.Remote && frozen && copies = 1) in
        if writable && copies > 1 then
          fail (Printf.sprintf "maps writable with %d copies left" copies);
        go ~maps:(maps + 1) rest)
  in
  walk ~copies ~frozen ~invalidated:false ~maps:0 steps;
  !bad

(* Every input is planned; the facts are asserted wherever a directory can
   be: its state agrees with the copy count and a local copy is a copy. *)
let test_plan_facts_exhaustive () =
  let bools = [ false; true ] in
  let planned = ref 0 and checked = ref 0 in
  let possible (state : Cpage.state) ~copies ~local =
    (match state with
    | Empty -> copies = 0
    | Present1 | Modified -> copies = 1
    | Present_plus -> copies > 1)
    && ((not local) || copies > 0)
  in
  List.iter
    (fun state ->
      List.iter
        (fun local ->
          List.iter
            (fun copies ->
              List.iter
                (fun write ->
                  List.iter
                    (fun frozen ->
                      List.iter
                        (fun verdict ->
                          incr planned;
                          let steps = Fault.plan ~write ~state ~copies ~local ~frozen verdict in
                          if possible state ~copies ~local then begin
                            incr checked;
                            match plan_violations ~write ~copies ~frozen steps with
                            | [] -> ()
                            | v :: _ ->
                              Alcotest.failf "%s %s, %d copies, local=%b frozen=%b: %s"
                                (if write then "write" else "read")
                                (Cpage.state_to_string state) copies local frozen v
                          end)
                        [ Policy.Replicate; Remote_map; Freeze; Thaw ])
                    bools)
                bools)
            [ 0; 1; 2; 3 ])
        bools)
    [ Cpage.Empty; Present1; Present_plus; Modified ];
  Alcotest.(check int) "every input planned" (4 * 2 * 4 * 2 * 2 * 4) !planned;
  Alcotest.(check int) "every possible directory checked" (9 * 2 * 2 * 4) !checked

let test_plan_facts_catch_bad_plans () =
  let caught name ~write ~copies steps =
    Alcotest.(check bool) name true (plan_violations ~write ~copies ~frozen:false steps <> [])
  in
  caught "present+ -> modified without its invalidation" ~write:true ~copies:2
    [ Fault.Free_copies Keep_local; Map Local ];
  caught "write mapping over shared copies" ~write:true ~copies:2 [ Fault.Map Local ];
  caught "migration copy before the invalidation" ~write:true ~copies:1
    [
      Fault.Alloc { place = Near; fallback = [ Map Remote ] };
      Copy { abortable = false; on_abort = [] };
      Shootdown { directive = Cmap.Invalidate; spare = false; protocol = true };
      Map Copied;
    ];
  caught "a path with no map" ~write:false ~copies:1 [ Fault.Note_remote ];
  caught "an abort tail with no map" ~write:false ~copies:1
    [
      Fault.Alloc { place = Near; fallback = [ Map Remote ] };
      Copy { abortable = true; on_abort = [ Settle ] };
      Map Copied;
    ]

let suite =
  [
    ("protocol: empty -> present1 on read", `Quick, test_empty_read);
    ("protocol: atlas matches Figure 4", `Quick, test_explored_figure4);
    ("protocol: empty -> modified on write", `Quick, test_empty_write);
    ("protocol: replication on read miss", `Quick, test_replication);
    ("protocol: replication isn't interference", `Quick, test_replication_not_a_protocol_invalidation);
    ("protocol: present1 -> modified is cheap", `Quick, test_present1_to_modified_cheap);
    ("protocol: write collapses replicas", `Quick, test_write_collapses_replicas);
    ("protocol: write miss migrates", `Quick, test_migration_on_write);
    ("policy: fine-grain sharing freezes", `Quick, test_freeze_on_write_sharing);
    ("policy: frozen pages map with full rights", `Quick, test_frozen_full_rights);
    ("policy: thaw allows replication", `Quick, test_thaw_allows_replication);
    ("policy: defrost daemon thaws", `Quick, test_defrost_daemon);
    ("policy: adaptive defrost arms and thaws", `Quick, test_defrost_adaptive_arms_and_thaws);
    ("policy: adaptive defrost backs off on churn", `Quick, test_defrost_adaptive_backoff);
    ( "policy: adaptive defrost keeps t2 across phases",
      `Quick,
      test_defrost_adaptive_slow_refreeze_keeps_t2 );
    ("policy: adaptive defrost ignores stale timers", `Quick, test_defrost_adaptive_stale_timer);
    ("policy: thaw-on-fault variant", `Quick, test_thaw_on_fault_policy);
    ("policy: static placement", `Quick, test_policy_static_place);
    ("policy: migrate-only", `Quick, test_policy_migrate_only);
    ("policy: bolosky", `Quick, test_policy_bolosky);
    ("policy: competitive (fault-sampled)", `Quick, test_policy_competitive);
    ("policy: always-replicate", `Quick, test_policy_always_replicate);
    ("policy: of_string", `Quick, test_policy_of_string);
    ("policy: verdicts leave the page unmodified", `Quick, test_policy_verdicts);
    ("policy: frozen pages stay single-copy under every policy", `Quick,
      test_frozen_single_copy_every_policy);
    ("policy: defrost and placement per kind", `Quick, test_policy_kind_flags);
    ("shootdown: only holders targeted", `Quick, test_shootdown_targets_only_holders);
    ("shootdown: inactive holders deferred", `Quick, test_shootdown_inactive_deferred);
    ("shootdown: refmask tracks pmaps", `Quick, test_refmask_tracks_pmaps);
    ("shootdown: message and IPI counts across spaces", `Quick, test_shootdown_counts_across_spaces);
    ("aspace: sharing across spaces", `Quick, test_multi_aspace_sharing);
    ("aspace: per-space protection", `Quick, test_multi_aspace_protection);
    ("aspace: unknown space leaves activation intact", `Quick, test_activate_unknown_aspace);
    ("aspace: unmapped raises", `Quick, test_unmapped_raises);
    ("atc: hits are free", `Quick, test_atc_hit_free);
    ("atc: flushed on space switch", `Quick, test_atc_flush_on_switch);
    ("access: block ops cross pages", `Quick, test_block_ops_cross_pages);
    ("access: rmw", `Quick, test_rmw);
    ("robustness: OOM falls back to remote maps", `Quick, test_oom_falls_back_to_remote);
    ("plan: every input, every outcome keeps the plan-level facts", `Quick, test_plan_facts_exhaustive);
    ("plan: seeded bad plans are caught", `Quick, test_plan_facts_catch_bad_plans);
    ("invariants: checker detects corruption", `Quick, test_invariant_checker_detects_corruption);
    ("invariants: cpage unit checks", `Quick, test_cpage_invariants_unit);
    ("caches: hits are fast", `Quick, test_cached_read_hit_is_fast);
    ("caches: frozen pages bypass the cache", `Quick, test_cached_frozen_page_not_cached);
    ("caches: no stale read after upgrade", `Quick, test_cached_no_stale_read_after_upgrade);
    ("caches: writes invalidate peers", `Quick, test_cached_word_write_invalidates_peers);
    qtest (prop_protocol_oracle (Policy.Platinum { thaw_on_fault = false }) "oracle: platinum policy");
    qtest
      (prop_protocol_oracle ~local_caches:true
         (Policy.Platinum { thaw_on_fault = false })
         "oracle: platinum policy + section-7 local caches");
    qtest
      (prop_protocol_oracle ~local_caches:true Policy.Never_move
         "oracle: static placement + section-7 local caches");
    qtest
      (prop_protocol_oracle ~local_caches:true Policy.Always_replicate
         "oracle: always-replicate + section-7 local caches");
    qtest (prop_protocol_oracle (Policy.Platinum { thaw_on_fault = true }) "oracle: platinum-thaw policy");
    qtest (prop_protocol_oracle Policy.Always_replicate "oracle: always-replicate policy");
    qtest (prop_protocol_oracle Policy.Never_move "oracle: static placement policy");
    qtest (prop_protocol_oracle Policy.Migrate_only "oracle: migrate-only policy");
    qtest (prop_protocol_oracle (Policy.Bolosky { max_migrations = 3 }) "oracle: bolosky policy");
    qtest (prop_protocol_oracle (Policy.Competitive { threshold = 3 }) "oracle: competitive policy");
  ]
