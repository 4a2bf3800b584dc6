(* Small, targeted unit tests for corners the larger suites pass over:
   Cmap bindings, rendering functions, workload oracles at hand-
   checkable sizes, model edge cases, kernel error paths. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Procset = Platinum_machine.Procset
module Memmodule = Platinum_machine.Memmodule
module Engine = Platinum_sim.Engine
module Rng = Platinum_sim.Rng
module Rights = Platinum_core.Rights
module Cpage = Platinum_core.Cpage
module Cmap = Platinum_core.Cmap
module Pmap = Platinum_core.Pmap
module Atc = Platinum_core.Atc
module Counters = Platinum_core.Counters
module Defrost = Platinum_core.Defrost
module Api = Platinum_kernel.Api
module Kernel = Platinum_kernel.Kernel
module Runner = Platinum_runner.Runner
module Outcome = Platinum_workload.Outcome
module Gauss = Platinum_workload.Gauss
module Jacobi = Platinum_workload.Jacobi
module M = Platinum_analysis.Migration_model
module Frame = Platinum_phys.Frame

let qtest = QCheck_alcotest.to_alcotest

(* --- Rights --- *)

let test_rights () =
  Alcotest.(check bool) "rw allows read" true (Rights.allows_read Rights.Read_write);
  Alcotest.(check bool) "ro forbids write" false (Rights.allows_write Rights.Read_only);
  Alcotest.(check bool) "none forbids read" false (Rights.allows_read Rights.No_access);
  Alcotest.(check bool) "min picks the tighter" true
    (Rights.equal (Rights.min Rights.Read_write Rights.Read_only) Rights.Read_only);
  Alcotest.(check string) "to_string" "rw" (Rights.to_string Rights.Read_write)

(* --- Cmap --- *)

let test_cmap_bind_duplicate () =
  let cm = Cmap.create ~aspace:0 ~nprocs:2 in
  let page = Cpage.create ~id:0 ~home:0 () in
  ignore (Cmap.bind cm ~vpage:5 page Rights.Read_write);
  Alcotest.(check bool) "duplicate bind rejected" true
    (try
       ignore (Cmap.bind cm ~vpage:5 page Rights.Read_only);
       false
     with Invalid_argument _ -> true);
  Cmap.unbind cm ~vpage:5;
  Alcotest.(check bool) "rebindable after unbind" true
    (match Cmap.bind cm ~vpage:5 page Rights.Read_only with _ -> true)

(* --- Pmap / Atc --- *)

let test_pmap_restrict_shares_entry () =
  let pm = Pmap.create () in
  let f = Frame.create ~mem_module:0 ~index:0 ~words:4 in
  let e = Pmap.install pm ~vpage:1 ~frame:f ~cpage:(Cpage.create ~id:0 ~home:0 ()) ~write_ok:true in
  Pmap.restrict pm ~vpage:1;
  Alcotest.(check bool) "restriction visible through the shared record" false e.Pmap.write_ok;
  Pmap.remove pm ~vpage:1;
  Alcotest.(check bool) "removed" true (Pmap.find pm ~vpage:1 = None);
  Pmap.restrict pm ~vpage:1 (* restricting a missing entry is a no-op *)

let test_atc_aspace_tagging () =
  let atc = Atc.create () in
  let pm = Pmap.create () in
  let f = Frame.create ~mem_module:0 ~index:0 ~words:4 in
  let e = Pmap.install pm ~vpage:3 ~frame:f ~cpage:(Cpage.create ~id:0 ~home:0 ()) ~write_ok:false in
  Alcotest.check_raises "no active space to load into"
    (Invalid_argument "Atc.load: no active address space") (fun () -> Atc.load atc e);
  ignore (Atc.activate atc ~aspace:7);
  Alcotest.(check bool) "installed, not yet cached" false (Atc.holds atc e);
  Atc.load atc e;
  Alcotest.(check bool) "hit in the active space" true (Atc.holds atc e);
  Alcotest.(check bool) "re-activating the active space is a no-op" false
    (Atc.activate atc ~aspace:7);
  Alcotest.(check bool) "still cached" true (Atc.holds atc e);
  ignore (Atc.activate atc ~aspace:8);
  Alcotest.(check bool) "flushed on switch" false (Atc.holds atc e);
  ignore (Atc.activate atc ~aspace:7);
  Alcotest.(check bool) "switching back does not revive it" false (Atc.holds atc e)

(* --- rendering / misc --- *)

let test_counters_pp () =
  let c = Counters.create () in
  c.Counters.replications <- 3;
  let s = Format.asprintf "%a" Counters.pp c in
  Alcotest.(check bool) "mentions replications" true (String.length s > 20);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 c.Counters.replications

let test_config_pp () =
  let s = Format.asprintf "%a" Config.pp (Config.butterfly_plus ()) in
  Alcotest.(check bool) "mentions 16 processors" true (String.length s > 10)

let test_procset_pp () =
  Alcotest.(check string) "render" "{1,3}" (Format.asprintf "%a" Procset.pp (Procset.of_list [ 3; 1 ]))

let test_cpage_pp () =
  let p = Cpage.create ~id:9 ~home:2 ~label:"demo" () in
  let s = Format.asprintf "%a" Cpage.pp p in
  Alcotest.(check bool) "labelled rendering" true (String.length s > 10)

let test_memmodule_reset () =
  let m = Memmodule.create 0 in
  ignore (Memmodule.acquire m ~arrival:0 ~service:100);
  Memmodule.reset_stats m;
  Alcotest.(check int) "busy cleared" 0 (Memmodule.total_busy_ns m);
  Alcotest.(check int) "requests cleared" 0 (Memmodule.requests m);
  Alcotest.(check bool) "horizon survives (it is machine state)" true
    (Memmodule.busy_until m = 100)

let test_outcome_helpers () =
  let o = Outcome.create () in
  Alcotest.(check bool) "fresh ok" true o.Outcome.ok;
  Outcome.require o true "fine %d" 1;
  Alcotest.(check bool) "require true keeps ok" true o.Outcome.ok;
  Outcome.fail o "broke: %s" "x";
  Outcome.fail o "second failure ignored";
  Alcotest.(check string) "first message kept" "broke: x" o.Outcome.detail

(* --- analysis edges --- *)

let test_model_edges () =
  Alcotest.(check bool) "rho=0 never pays" true
    (M.min_page_words M.butterfly_plus ~g:1.0 ~rho:0.0 = None);
  Alcotest.(check bool) "tiny page never pays even at rho=2" false
    (M.migration_pays M.butterfly_plus ~g:1.0 ~rho:2.0 ~page_words:4);
  Alcotest.(check bool) "g_round_robin rejects p<2" true
    (try
       ignore (M.g_round_robin ~p:1);
       false
     with Invalid_argument _ -> true)

let test_defrost_default () =
  match Defrost.default_adaptive with
  | Defrost.Adaptive { initial_t2; max_t2; refreeze_window } ->
    Alcotest.(check bool) "sane ordering" true
      (refreeze_window < initial_t2 && initial_t2 < max_t2)
  | Defrost.Periodic -> Alcotest.fail "expected adaptive"

(* --- hand-checkable gauss oracle --- *)

let test_gauss_oracle_2x2 () =
  (* For n=2 the oracle reduces to one elimination step we can do by
     hand: m' r1 = (r1 - (r1c0 / r0c0) * r0) masked. *)
  let p = Gauss.params ~n:2 ~nprocs:1 () in
  let m = Gauss.sequential p in
  let a00 = Gauss.init_elem p 0 0 land Gauss.value_mask in
  let a01 = Gauss.init_elem p 0 1 land Gauss.value_mask in
  let a10 = Gauss.init_elem p 1 0 land Gauss.value_mask in
  let a11 = Gauss.init_elem p 1 1 land Gauss.value_mask in
  let f = if a00 = 0 then 0 else a10 / a00 in
  Alcotest.(check int) "pivot row unchanged" a01 m.(0).(1);
  Alcotest.(check int) "eliminated col" ((a10 - (f * a00)) land Gauss.value_mask) m.(1).(0);
  Alcotest.(check int) "eliminated val" ((a11 - (f * a01)) land Gauss.value_mask) m.(1).(1)

(* The oracle's earlier formulation: copy each row slice out, eliminate
   it, blit it back.  The in-place oracle must produce the same matrix. *)
let gauss_sub_blit p =
  let n = p.Gauss.n in
  let m =
    Array.init n (fun i -> Array.init n (fun j -> Gauss.init_elem p i j land Gauss.value_mask))
  in
  for k = 0 to n - 2 do
    let piv = Array.sub m.(k) k (n - k) in
    for r = k + 1 to n - 1 do
      let row = Array.sub m.(r) k (n - k) in
      let factor = if piv.(0) = 0 then 0 else row.(0) / piv.(0) in
      for j = 0 to n - k - 1 do
        row.(j) <- (row.(j) - (factor * piv.(j))) land Gauss.value_mask
      done;
      Array.blit row 0 m.(r) k (n - k)
    done
  done;
  m

let test_gauss_oracle_in_place () =
  List.iter
    (fun seed ->
      let p = Gauss.params ~n:64 ~nprocs:1 ~seed () in
      Alcotest.(check (array (array int)))
        (Printf.sprintf "seed %d" seed) (gauss_sub_blit p) (Gauss.sequential p))
    [ 1; 42; 1989 ]

let test_jacobi_oracle_smoothing () =
  (* One iteration of the all-equal grid is a fixed point. *)
  let p = Jacobi.params ~n:8 ~iters:1 ~nprocs:1 ~seed:0 () in
  let g0 = Jacobi.sequential { p with Jacobi.iters = 0 } in
  let g1 = Jacobi.sequential p in
  (* Interior cells become neighbour means; border rows never change. *)
  Alcotest.(check (array int)) "top border fixed" g0.(0) g1.(0);
  Alcotest.(check (array int)) "bottom border fixed" g0.(7) g1.(7);
  Alcotest.(check int) "one interior cell by hand"
    ((g0.(1).(3) + g0.(3).(3) + g0.(2).(2) + g0.(2).(4)) / 4 land 0xFFFFF)
    g1.(2).(3)

(* --- kernel error paths --- *)

let run ?(nprocs = 4) main =
  Runner.time ~config:(Config.butterfly_plus ~nprocs ()) ~frames_per_module:32
    main

let test_spawn_bad_proc () =
  Alcotest.(check bool) "bad processor rejected" true
    (try
       ignore (run (fun () -> ignore (Api.spawn ~proc:99 (fun () -> ()))));
       false
     with Kernel.Thread_failure (Invalid_argument _) -> true)

let test_migrate_same_proc_free () =
  run (fun () ->
      let t0 = Api.now () in
      Api.migrate (Api.my_proc ());
      Alcotest.(check int) "no-op migration costs nothing" t0 (Api.now ()))
  |> ignore

let test_unknown_port () =
  Alcotest.(check bool) "send to unknown port fails the thread" true
    (try
       ignore (run (fun () -> Api.send 99 [| 1 |]));
       false
     with Kernel.Thread_failure (Invalid_argument _) -> true)

let test_block_read_len_zero () =
  run (fun () ->
      let a = Api.alloc 4 in
      Alcotest.(check (array int)) "empty read" [||] (Api.block_read a 0))
  |> ignore

let test_empty_message () =
  run (fun () ->
      let port = Api.new_port () in
      let t = Api.spawn ~proc:1 (fun () ->
          Alcotest.(check (array int)) "zero-length message" [||] (Api.recv port)) in
      Api.send port [||];
      Api.join t)
  |> ignore

(* --- engine property: random schedules drain in order --- *)

let prop_engine_sorted =
  QCheck.Test.make ~name:"random schedules drain in time order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let e = Engine.create () in
      let seen = ref [] in
      List.iter (fun at -> Engine.schedule_at e ~at (fun () -> seen := at :: !seen)) times;
      Engine.run e;
      List.rev !seen = List.sort compare times)

let suite =
  [
    ("rights: lattice", `Quick, test_rights);
    ("cmap: duplicate binds", `Quick, test_cmap_bind_duplicate);
    ("pmap: restriction through shared entries", `Quick, test_pmap_restrict_shares_entry);
    ("atc: address-space tagging", `Quick, test_atc_aspace_tagging);
    ("render: counters", `Quick, test_counters_pp);
    ("render: config", `Quick, test_config_pp);
    ("render: procset", `Quick, test_procset_pp);
    ("render: cpage", `Quick, test_cpage_pp);
    ("memmodule: stats reset", `Quick, test_memmodule_reset);
    ("outcome: helpers", `Quick, test_outcome_helpers);
    ("analysis: edge cases", `Quick, test_model_edges);
    ("defrost: default adaptive parameters", `Quick, test_defrost_default);
    ("gauss: 2x2 oracle by hand", `Quick, test_gauss_oracle_2x2);
    ("gauss: in-place oracle = sub/blit", `Quick, test_gauss_oracle_in_place);
    ("jacobi: oracle smoothing by hand", `Quick, test_jacobi_oracle_smoothing);
    ("kernel: bad processor rejected", `Quick, test_spawn_bad_proc);
    ("kernel: same-proc migration free", `Quick, test_migrate_same_proc_free);
    ("kernel: unknown port", `Quick, test_unknown_port);
    ("kernel: zero-length block read", `Quick, test_block_read_len_zero);
    ("kernel: empty message", `Quick, test_empty_message);
    qtest prop_engine_sorted;
  ]
