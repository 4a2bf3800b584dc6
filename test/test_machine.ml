(* Tests for the Butterfly machine model: processor sets, memory modules,
   interconnect cost functions, configuration presets. *)

module Config = Platinum_machine.Config
module Procset = Platinum_machine.Procset
module Memmodule = Platinum_machine.Memmodule
module Xbar = Platinum_machine.Xbar
module Machine = Platinum_machine.Machine

let qtest = QCheck_alcotest.to_alcotest

(* --- Procset --- *)

let test_procset_basic () =
  let s = Procset.of_list [ 3; 1; 5 ] in
  Alcotest.(check int) "cardinal" 3 (Procset.cardinal s);
  Alcotest.(check bool) "mem 3" true (Procset.mem 3 s);
  Alcotest.(check bool) "mem 2" false (Procset.mem 2 s);
  Alcotest.(check (list int)) "to_list sorted" [ 1; 3; 5 ] (Procset.to_list s);
  Alcotest.(check bool) "choose = min" true (Procset.choose s = Some 1)

let test_procset_full () =
  let s = Procset.full ~n:16 in
  Alcotest.(check int) "full 16" 16 (Procset.cardinal s);
  Alcotest.(check bool) "mem 15" true (Procset.mem 15 s);
  Alcotest.(check bool) "not mem 16" false (Procset.mem 16 s);
  Alcotest.(check int) "full 62 works" 62 (Procset.cardinal (Procset.full ~n:62))

let test_procset_bounds () =
  Alcotest.check_raises "negative id" (Invalid_argument "Procset: processor id out of [0, 61]")
    (fun () -> ignore (Procset.singleton (-1)));
  Alcotest.check_raises "id 62" (Invalid_argument "Procset: processor id out of [0, 61]")
    (fun () -> ignore (Procset.singleton 62))

let pset_gen = QCheck.Gen.(map Procset.of_list (list_size (int_bound 10) (int_bound 61)))
let pset_arb = QCheck.make ~print:(fun s -> Format.asprintf "%a" Procset.pp s) pset_gen

module IS = Set.Make (Int)

let to_set s = IS.of_list (Procset.to_list s)

let prop_procset_union =
  QCheck.Test.make ~name:"procset union = set union" ~count:300 (QCheck.pair pset_arb pset_arb)
    (fun (a, b) -> IS.equal (to_set (Procset.union a b)) (IS.union (to_set a) (to_set b)))

let prop_procset_inter =
  QCheck.Test.make ~name:"procset inter = set inter" ~count:300 (QCheck.pair pset_arb pset_arb)
    (fun (a, b) -> IS.equal (to_set (Procset.inter a b)) (IS.inter (to_set a) (to_set b)))

let prop_procset_diff =
  QCheck.Test.make ~name:"procset diff = set diff" ~count:300 (QCheck.pair pset_arb pset_arb)
    (fun (a, b) -> IS.equal (to_set (Procset.diff a b)) (IS.diff (to_set a) (to_set b)))

let prop_procset_add_remove =
  QCheck.Test.make ~name:"remove after add restores membership" ~count:300
    (QCheck.pair pset_arb (QCheck.int_bound 61))
    (fun (s, i) ->
      let added = Procset.add i s in
      Procset.mem i added && Procset.cardinal (Procset.remove i added) = Procset.cardinal added - 1)

let prop_procset_subset =
  QCheck.Test.make ~name:"inter is a subset of both" ~count:300 (QCheck.pair pset_arb pset_arb)
    (fun (a, b) ->
      let i = Procset.inter a b in
      Procset.subset i a && Procset.subset i b)

let prop_procset_fold =
  QCheck.Test.make ~name:"fold counts cardinal" ~count:300 pset_arb (fun s ->
      Procset.fold (fun _ acc -> acc + 1) s 0 = Procset.cardinal s)

(* --- Memmodule --- *)

let test_module_uncontended () =
  let m = Memmodule.create () in
  let start = Memmodule.acquire m ~arrival:100 ~service:50 in
  Alcotest.(check int) "starts at arrival" 100 start;
  Alcotest.(check int) "busy until" 150 (Memmodule.busy_until m)

let test_module_queueing () =
  let m = Memmodule.create () in
  ignore (Memmodule.acquire m ~arrival:0 ~service:100);
  let s2 = Memmodule.acquire m ~arrival:30 ~service:10 in
  Alcotest.(check int) "queued behind first" 100 s2;
  Alcotest.(check int) "wait recorded" 70 (Memmodule.total_wait_ns m);
  Alcotest.(check int) "busy total" 110 (Memmodule.total_busy_ns m);
  Alcotest.(check int) "requests" 2 (Memmodule.requests m)

let test_module_idle_gap () =
  let m = Memmodule.create () in
  ignore (Memmodule.acquire m ~arrival:0 ~service:10);
  let s = Memmodule.acquire m ~arrival:100 ~service:10 in
  Alcotest.(check int) "no wait after idle gap" 100 s;
  Alcotest.(check int) "no wait recorded" 0 (Memmodule.total_wait_ns m)

let test_module_reserve () =
  let m = Memmodule.create () in
  Memmodule.reserve_until m 500;
  let s = Memmodule.acquire m ~arrival:0 ~service:10 in
  Alcotest.(check int) "reservation blocks" 500 s;
  Alcotest.(check int) "reserved time counted busy" 510 (Memmodule.total_busy_ns m)

let test_module_utilization () =
  let m = Memmodule.create () in
  ignore (Memmodule.acquire m ~arrival:0 ~service:250);
  Alcotest.(check (float 1e-9)) "25% of 1000" 0.25 (Memmodule.utilization m ~horizon:1000)

let test_module_negative_service () =
  let m = Memmodule.create () in
  Alcotest.check_raises "negative service"
    (Invalid_argument "Memmodule.acquire: negative service") (fun () ->
      ignore (Memmodule.acquire m ~arrival:0 ~service:(-1)));
  Alcotest.(check int) "nothing recorded" 0 (Memmodule.requests m)

(* --- Xbar --- *)

let config = Config.butterfly_plus ()

let fresh_modules () = Array.init config.Config.nprocs (fun _ -> Memmodule.create ())

let test_xbar_local_read () =
  let mods = fresh_modules () in
  let lat = Xbar.access config mods ~now:0 ~proc:3 ~mem_module:3 Xbar.Read ~words:1 in
  Alcotest.(check int) "local read = T_l" config.Config.t_local_word lat

let test_xbar_remote_read () =
  let mods = fresh_modules () in
  let lat = Xbar.access config mods ~now:0 ~proc:0 ~mem_module:5 Xbar.Read ~words:1 in
  Alcotest.(check int) "remote read = T_r" config.Config.t_remote_read_word lat

let test_xbar_remote_write_faster () =
  let mods = fresh_modules () in
  let r = Xbar.access config mods ~now:0 ~proc:0 ~mem_module:5 Xbar.Read ~words:1 in
  let mods = fresh_modules () in
  let w = Xbar.access config mods ~now:0 ~proc:0 ~mem_module:5 Xbar.Write ~words:1 in
  Alcotest.(check bool) "writes faster than reads" true (w < r)

let test_xbar_contention () =
  let mods = fresh_modules () in
  (* Two processors hit module 7 at the same instant: the second queues. *)
  let l1 = Xbar.access config mods ~now:0 ~proc:0 ~mem_module:7 Xbar.Read ~words:1 in
  let l2 = Xbar.access config mods ~now:0 ~proc:1 ~mem_module:7 Xbar.Read ~words:1 in
  Alcotest.(check int) "first uncontended" config.Config.t_remote_read_word l1;
  Alcotest.(check int) "second queues one service slot"
    (config.Config.t_remote_read_word + config.Config.t_module_service)
    l2

let test_xbar_block_words () =
  let mods = fresh_modules () in
  let lat = Xbar.access config mods ~now:0 ~proc:2 ~mem_module:2 Xbar.Read ~words:100 in
  Alcotest.(check int) "100 local words" (100 * config.Config.t_local_word) lat;
  Alcotest.(check int) "zero words free"
    0
    (Xbar.access config mods ~now:0 ~proc:2 ~mem_module:2 Xbar.Read ~words:0)

let test_xbar_block_copy () =
  let mods = fresh_modules () in
  let words = config.Config.page_words in
  let lat = Xbar.block_copy config mods ~now:0 ~src:0 ~dst:1 ~words in
  Alcotest.(check int) "page copy = s * T_b" (words * config.Config.t_block_word) lat;
  (* The paper: 1.11 ms for a 4 KB page. *)
  Alcotest.(check bool) "~1.11 ms" true (lat > 1_050_000 && lat < 1_180_000)

let test_xbar_block_copy_occupies_both () =
  let mods = fresh_modules () in
  ignore (Xbar.block_copy config mods ~now:0 ~src:0 ~dst:1 ~words:1000);
  (* Both modules are busy for the transfer: a local access on either
     side queues behind it. *)
  let l_src = Xbar.access config mods ~now:0 ~proc:0 ~mem_module:0 Xbar.Read ~words:1 in
  let l_dst = Xbar.access config mods ~now:0 ~proc:1 ~mem_module:1 Xbar.Read ~words:1 in
  Alcotest.(check bool) "src module blocked" true (l_src > 1_000_000);
  Alcotest.(check bool) "dst module blocked" true (l_dst > 1_000_000)

let test_xbar_copy_serializes_at_source () =
  (* Two simultaneous replications from module 0: the second waits — the
     pivot-row serialization of §5.1. *)
  let mods = fresh_modules () in
  let l1 = Xbar.block_copy config mods ~now:0 ~src:0 ~dst:1 ~words:1000 in
  let l2 = Xbar.block_copy config mods ~now:0 ~src:0 ~dst:2 ~words:1000 in
  Alcotest.(check bool) "second copy waits for the first" true (l2 >= 2 * l1)

let test_xbar_zero_fill () =
  let mods = fresh_modules () in
  let lat = Xbar.zero_fill config mods ~now:0 ~dst:4 ~words:1024 in
  Alcotest.(check int) "zero fill cost" (1024 * config.Config.zero_fill_word_ns) lat

(* --- Config / Machine --- *)

let test_config_preset () =
  Alcotest.(check int) "16 processors" 16 config.Config.nprocs;
  Alcotest.(check int) "4KB pages" 4096 (config.Config.page_words * 4);
  Alcotest.(check int) "T_l" 320 config.Config.t_local_word;
  Alcotest.(check int) "T_r" 5000 config.Config.t_remote_read_word;
  Alcotest.(check int) "t1 = 10ms" 10_000_000 config.Config.t1_freeze_window;
  Alcotest.(check int) "t2 = 1s" 1_000_000_000 config.Config.t2_defrost_period

let test_config_override () =
  let c = Config.with_policy_params ~t1_freeze_window:42 ~t2_defrost_period:43 config in
  Alcotest.(check int) "t1 overridden" 42 c.Config.t1_freeze_window;
  Alcotest.(check int) "t2 overridden" 43 c.Config.t2_defrost_period;
  Alcotest.(check int) "others kept" 16 c.Config.nprocs

let test_config_bad_nprocs () =
  Alcotest.check_raises "nprocs 0" (Invalid_argument "Config.butterfly_plus: nprocs must be in [1, 62]")
    (fun () -> ignore (Config.butterfly_plus ~nprocs:0 ()))

let test_machine_penalties () =
  let m = Machine.create config in
  Machine.add_penalty m ~proc:3 100;
  Machine.add_penalty m ~proc:3 50;
  Alcotest.(check int) "accumulates" 150 (Machine.take_penalty m ~proc:3);
  Alcotest.(check int) "cleared after take" 0 (Machine.take_penalty m ~proc:3)

let test_machine_busy_horizon () =
  let m = Machine.create config in
  Machine.set_proc_busy_until m ~proc:2 500;
  Machine.set_proc_busy_until m ~proc:2 300;
  Alcotest.(check int) "monotone" 500 (Machine.proc_busy_until m ~proc:2)

let suite =
  [
    ("procset: basics", `Quick, test_procset_basic);
    ("procset: full", `Quick, test_procset_full);
    ("procset: bounds", `Quick, test_procset_bounds);
    qtest prop_procset_union;
    qtest prop_procset_inter;
    qtest prop_procset_diff;
    qtest prop_procset_add_remove;
    qtest prop_procset_subset;
    qtest prop_procset_fold;
    ("memmodule: uncontended", `Quick, test_module_uncontended);
    ("memmodule: queueing", `Quick, test_module_queueing);
    ("memmodule: idle gap", `Quick, test_module_idle_gap);
    ("memmodule: reservation", `Quick, test_module_reserve);
    ("memmodule: utilization", `Quick, test_module_utilization);
    ("memmodule: negative service rejected", `Quick, test_module_negative_service);
    ("xbar: local read", `Quick, test_xbar_local_read);
    ("xbar: remote read", `Quick, test_xbar_remote_read);
    ("xbar: remote write faster", `Quick, test_xbar_remote_write_faster);
    ("xbar: module contention", `Quick, test_xbar_contention);
    ("xbar: block words", `Quick, test_xbar_block_words);
    ("xbar: page copy timing", `Quick, test_xbar_block_copy);
    ("xbar: copy occupies both modules", `Quick, test_xbar_block_copy_occupies_both);
    ("xbar: copies serialize at source", `Quick, test_xbar_copy_serializes_at_source);
    ("xbar: zero fill", `Quick, test_xbar_zero_fill);
    ("config: butterfly preset", `Quick, test_config_preset);
    ("config: policy overrides", `Quick, test_config_override);
    ("config: bad nprocs", `Quick, test_config_bad_nprocs);
    ("machine: penalties", `Quick, test_machine_penalties);
    ("machine: busy horizon", `Quick, test_machine_busy_horizon);
  ]
