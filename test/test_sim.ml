(* Tests for the discrete-event substrate: heaps, the engine, the PRNG. *)

module Heap = Platinum_heap_oracle.Heap
module Eheap = Platinum_sim.Eheap
module Engine = Platinum_sim.Engine
module Rng = Platinum_sim.Rng
module Time_ns = Platinum_sim.Time_ns
module Fnv = Platinum_sim.Fnv

module IH = Heap.Make (Int)

let qtest = QCheck_alcotest.to_alcotest

(* --- Heap --- *)

let test_heap_empty () =
  Alcotest.(check bool) "empty is empty" true (IH.is_empty IH.empty);
  Alcotest.(check bool) "find_min empty" true (IH.find_min IH.empty = None);
  Alcotest.(check bool) "delete_min empty" true (IH.delete_min IH.empty = None)

let test_heap_basic () =
  let h = IH.of_list [ (3, "c"); (1, "a"); (2, "b") ] in
  Alcotest.(check int) "size" 3 (IH.size h);
  match IH.delete_min h with
  | Some ((1, "a"), rest) -> (
    match IH.delete_min rest with
    | Some ((2, "b"), rest2) ->
      Alcotest.(check bool) "last is c" true (IH.find_min rest2 = Some (3, "c"))
    | _ -> Alcotest.fail "expected (2, b) second")
  | _ -> Alcotest.fail "expected (1, a) first"

let test_heap_merge () =
  let a = IH.of_list [ (5, 5); (1, 1) ] in
  let b = IH.of_list [ (3, 3); (0, 0) ] in
  let m = IH.merge a b in
  Alcotest.(check int) "merged size" 4 (IH.size m);
  Alcotest.(check bool) "min of merge" true (IH.find_min m = Some (0, 0))

let test_heap_duplicate_keys () =
  let h = IH.of_list [ (1, "x"); (1, "y"); (1, "z") ] in
  let keys = List.map fst (IH.to_sorted_list h) in
  Alcotest.(check (list int)) "all three kept" [ 1; 1; 1 ] keys

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = IH.of_list (List.map (fun k -> (k, k)) l) in
      let drained = List.map fst (IH.to_sorted_list h) in
      drained = List.sort compare l)

let prop_heap_size =
  QCheck.Test.make ~name:"heap size = list length" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = IH.of_list (List.map (fun k -> (k, ())) l) in
      IH.size h = List.length l)

let prop_heap_merge_is_union =
  QCheck.Test.make ~name:"merge drains the multiset union" ~count:200
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let ha = IH.of_list (List.map (fun k -> (k, ())) a) in
      let hb = IH.of_list (List.map (fun k -> (k, ())) b) in
      let drained = List.map fst (IH.to_sorted_list (IH.merge ha hb)) in
      drained = List.sort compare (a @ b))

let prop_heap_size_deep_shape =
  (* Adversarial shape for the old recursive size: a long insert-only chain
     degenerates into deep child lists; size must stay constant-stack. *)
  QCheck.Test.make ~name:"heap size survives deep list-like shapes" ~count:5
    QCheck.(int_range 100_000 200_000)
    (fun n ->
      let h = ref IH.empty in
      for i = 1 to n do
        h := IH.insert i i !h
      done;
      IH.size !h = n)

(* --- Eheap --- *)

let drain_eheap h =
  let out = ref [] in
  while not (Eheap.is_empty h) do
    let t = Eheap.min_time h and s = Eheap.min_seq h in
    out := (t, s, Eheap.pop h) :: !out
  done;
  List.rev !out

let test_eheap_empty () =
  let h = Eheap.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Eheap.is_empty h);
  Alcotest.(check int) "size 0" 0 (Eheap.size h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Eheap.pop: empty heap") (fun () ->
      ignore (Eheap.pop h))

let test_eheap_order () =
  let h = Eheap.create ~capacity:2 ~dummy:"" () in
  Eheap.add h ~time:30 ~seq:0 "c";
  Eheap.add h ~time:10 ~seq:1 "a";
  Eheap.add h ~time:20 ~seq:2 "b";
  Eheap.add h ~time:10 ~seq:3 "a2";
  Alcotest.(check int) "size" 4 (Eheap.size h);
  Alcotest.(check (list string)) "time order, ties by seq" [ "a"; "a2"; "b"; "c" ]
    (List.map (fun (_, _, v) -> v) (drain_eheap h))

let test_eheap_fallback () =
  (* A time beyond the packed range forces the two-array representation;
     the order must be unchanged, mid-stream. *)
  let h = Eheap.create ~dummy:0 () in
  Eheap.add h ~time:5 ~seq:0 1;
  Alcotest.(check bool) "starts packed" true (Eheap.is_packed h);
  Eheap.add h ~time:(Eheap.max_packed_time + 7) ~seq:1 2;
  Eheap.add h ~time:3 ~seq:2 3;
  Alcotest.(check bool) "spilled" false (Eheap.is_packed h);
  Alcotest.(check (list int)) "order across the migration" [ 3; 1; 2 ]
    (List.map (fun (_, _, v) -> v) (drain_eheap h))

let test_eheap_seq_fallback () =
  (* The sharded engine packs (src_node lsl 36 | src_seq) into the seq
     component, so any multi-node run blows past max_packed_seq on node 1's
     first event.  The seq threshold therefore carries real traffic now —
     pin the migration it triggers, mid-stream, with ties across the
     representation change. *)
  let h = Eheap.create ~dummy:0 () in
  Eheap.add h ~time:10 ~seq:3 1;
  Eheap.add h ~time:10 ~seq:Eheap.max_packed_seq 2;
  Alcotest.(check bool) "max packed seq still packed" true (Eheap.is_packed h);
  Eheap.add h ~time:10 ~seq:(Eheap.max_packed_seq + 1) 3;
  Alcotest.(check bool) "seq + 1 spills" false (Eheap.is_packed h);
  (* a shard-style wide key: node 5's event 0 *)
  Eheap.add h ~time:10 ~seq:(5 lsl 36) 4;
  Eheap.add h ~time:9 ~seq:((1 lsl 36) lor 7) 5;
  Alcotest.(check (list int)) "lexicographic across the migration" [ 5; 1; 2; 3; 4 ]
    (List.map (fun (_, _, v) -> v) (drain_eheap h))

let test_eheap_threshold_edges () =
  (* Exact boundary headroom on both components: the largest packed values
     stay packed; one past either spills; keys compare identically in both
     representations. *)
  Alcotest.(check int) "packed time headroom is 2^36 ns" ((1 lsl 36) - 1)
    Eheap.max_packed_time;
  Alcotest.(check int) "packed seq headroom is 2^26" ((1 lsl 26) - 1)
    Eheap.max_packed_seq;
  let boundary = Eheap.create ~dummy:0 () in
  Eheap.add boundary ~time:Eheap.max_packed_time ~seq:Eheap.max_packed_seq 1;
  Alcotest.(check bool) "both components at max stay packed" true
    (Eheap.is_packed boundary);
  let spill_time = Eheap.create ~dummy:0 () in
  Eheap.add spill_time ~time:(Eheap.max_packed_time + 1) ~seq:0 1;
  Alcotest.(check bool) "time threshold spills alone" false (Eheap.is_packed spill_time);
  (* Cross BOTH thresholds in one heap — a long sharded run: wide node
     keys from the start, then simulated time past 2^36 ns (~69 s). *)
  let h = Eheap.create ~dummy:0 () in
  Eheap.add h ~time:(Eheap.max_packed_time + 100) ~seq:((3 lsl 36) lor 1) 4;
  Eheap.add h ~time:(Eheap.max_packed_time + 100) ~seq:(2 lsl 36) 3;
  Eheap.add h ~time:Eheap.max_packed_time ~seq:((9 lsl 36) lor 123) 2;
  Eheap.add h ~time:50 ~seq:0 1;
  Alcotest.(check bool) "wide keys + wide times coexist" false (Eheap.is_packed h);
  Alcotest.(check (list int)) "order with both thresholds crossed" [ 1; 2; 3; 4 ]
    (List.map (fun (_, _, v) -> v) (drain_eheap h))

let prop_eheap_threshold_straddle =
  (* Keys drawn from both sides of both packed thresholds, in random
     insert order: pops must come back lexicographically sorted whatever
     mixture of representations the inserts marched the heap through. *)
  QCheck.Test.make ~name:"eheap total order straddling both packed thresholds"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 3) (int_bound 1_000)))
    (fun picks ->
      let h = Eheap.create ~capacity:1 ~dummy:(-1) () in
      let keys =
        List.mapi
          (fun i (zone, off) ->
            let time =
              match zone with
              | 0 -> off (* small packed *)
              | 1 -> Eheap.max_packed_time - off (* near the edge, packed *)
              | 2 -> Eheap.max_packed_time + 1 + off (* past the edge *)
              | _ -> 2 * Eheap.max_packed_time (* deep fallback *)
            in
            (* unique seqs; half narrow, half shard-style wide *)
            let seq = if i mod 2 = 0 then i else (i lsl 36) lor i in
            (time, seq))
          picks
      in
      List.iteri (fun i (time, seq) -> Eheap.add h ~time ~seq i) keys;
      let popped = drain_eheap h in
      let sorted = List.sort compare (List.map (fun (t, s, _) -> (t, s)) popped) in
      List.map (fun (t, s, _) -> (t, s)) popped = sorted
      && List.length popped = List.length keys)

let prop_eheap_matches_pairing =
  (* The tentpole contract: the array heap dequeues in exactly the pairing
     heap's order on any insert / delete-min interleaving.  Ops: [Some t] =
     insert at time t (seq auto-increments), [None] = delete-min.  One
     time in ten lies past [max_packed_time], so most runs spill to the
     fallback mode part-way and its sifts carry slots too. *)
  QCheck.Test.make ~name:"eheap order == pairing heap order on random interleavings"
    ~count:500
    QCheck.(
      list
        (option
           (frequency
              [
                (9, int_bound 50);
                (1, map (fun o -> Eheap.max_packed_time + 1 + o) (int_bound 50));
              ])))
    (fun ops ->
      let module K = struct
        type t = int * int

        let compare (t1, s1) (t2, s2) =
          let c = compare t1 t2 in
          if c <> 0 then c else compare s1 s2
      end in
      let module PH = Heap.Make (K) in
      let ph = ref PH.empty in
      let eh = Eheap.create ~capacity:1 ~dummy:(-1) () in
      let seq = ref 0 in
      let mismatch = ref false in
      List.iter
        (fun op ->
          match op with
          | Some t ->
            ph := PH.insert (t, !seq) !seq !ph;
            Eheap.add eh ~time:t ~seq:!seq !seq;
            incr seq
          | None -> (
            match PH.delete_min !ph with
            | None -> if not (Eheap.is_empty eh) then mismatch := true
            | Some (((t, s), v), rest) ->
              ph := rest;
              if
                Eheap.is_empty eh
                || Eheap.min_time eh <> t
                || Eheap.min_seq eh <> s
                || Eheap.pop eh <> v
              then mismatch := true))
        ops;
      (* Drain what's left: the tails must agree too. *)
      let rec drain () =
        match PH.delete_min !ph with
        | None -> if not (Eheap.is_empty eh) then mismatch := true
        | Some ((_, v), rest) ->
          ph := rest;
          if Eheap.is_empty eh || Eheap.pop eh <> v then mismatch := true;
          drain ()
      in
      drain ();
      not !mismatch)

(* Payloads live in slots that [pop] resets to [dummy]: once popped, a
   boxed payload must be collectable, while the ones still queued stay
   reachable.  Adds after pops reuse freed slots; the second heap runs in
   the fallback mode. *)
let test_eheap_releases_popped () =
  let n = 64 in
  let check_mode ~base =
    let weak = Weak.create (2 * n) in
    let h = Eheap.create ~capacity:4 ~dummy:(ref (-1)) () in
    let fill lo hi =
      for i = lo to hi - 1 do
        let v = ref i in
        Weak.set weak i (Some v);
        Eheap.add h ~time:(base + ((i * 37) mod 101)) ~seq:i v
      done
    in
    let pop k =
      for _ = 1 to k do
        ignore (Sys.opaque_identity (Eheap.pop h))
      done
    in
    (* Build and pop out of line, so no stack slot keeps a payload alive. *)
    (Sys.opaque_identity fill) 0 n;
    (Sys.opaque_identity pop) (n / 2);
    (Sys.opaque_identity fill) n (2 * n);
    (Sys.opaque_identity pop) n;
    Gc.full_major ();
    Gc.full_major ();
    let live = ref 0 in
    for i = 0 to (2 * n) - 1 do
      if Weak.check weak i then incr live
    done;
    Alcotest.(check int) "only the queued payloads survive a major GC" (Eheap.size h) !live;
    Alcotest.(check int) "queued count" (n / 2) (Eheap.size h);
    h
  in
  let packed = check_mode ~base:0 in
  Alcotest.(check bool) "packed mode" true (Eheap.is_packed packed);
  let fallback = check_mode ~base:(Eheap.max_packed_time + 1) in
  Alcotest.(check bool) "fallback mode" false (Eheap.is_packed fallback)

(* --- Engine --- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule_at e ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule_at e ~at:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule_at e ~at:5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties run in scheduling order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule_at e ~at:100 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past scheduling rejected" (Invalid_argument "") (fun () ->
      try Engine.schedule_at e ~at:50 (fun () -> ())
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~at:10 (fun () ->
      log := "a" :: !log;
      Engine.schedule_after e ~delay:5 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested event ran" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "clock" 15 (Engine.now e)

let test_engine_post_default () =
  (* Without a router, post IS schedule_after — same delivery times, same
     FIFO tie order, src/dst ignored.  This is what keeps every golden
     byte-identical while the kernel's cross-processor wakes route
     through the façade. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.post e ~src:0 ~dst:3 ~delay:20 (fun () -> log := "b" :: !log);
  Engine.post e ~src:2 ~dst:1 ~delay:10 (fun () -> log := "a" :: !log);
  Engine.schedule_after e ~delay:20 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "schedule_after semantics, ties FIFO"
    [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock" 20 (Engine.now e)

let test_engine_post_router () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.set_router e
    (Some
       {
         Engine.route =
           (fun ~src ~dst ~delay fn ->
             seen := (src, dst, delay) :: !seen;
             (* a router that adds a hop surcharge, then hands back *)
             Engine.schedule_after e ~delay:(delay + 5) fn);
       });
  let at = ref 0 in
  Engine.post e ~src:4 ~dst:9 ~delay:10 (fun () -> at := Engine.now e);
  Engine.run e;
  Alcotest.(check (list (triple int int int))) "router saw src/dst/delay" [ (4, 9, 10) ] !seen;
  Alcotest.(check int) "routed delivery includes the surcharge" 15 !at

(* [advance_inline] stands in for the next event only inside an
   unrouted run, and only strictly before every pending
   event; an inline step counts as a processed event. *)
let test_engine_advance_inline () =
  let e = Engine.create () in
  Alcotest.(check bool) "outside a run" false (Engine.advance_inline e ~at:5);
  let log = ref [] in
  let try_at at =
    let ok = Engine.advance_inline e ~at in
    log := (at, ok, Engine.now e) :: !log
  in
  Engine.schedule_at e ~at:10 (fun () ->
      Engine.schedule_at e ~at:100 ignore;
      try_at 5;
      try_at 100;
      try_at 60;
      try_at 99);
  Engine.run e;
  Alcotest.(check (list (triple int bool int)))
    "past and tied refused; earlier than every pending event accepted"
    [ (5, false, 10); (100, false, 10); (60, true, 60); (99, true, 99) ]
    (List.rev !log);
  Alcotest.(check int) "inline steps count as events" 4 (Engine.events_processed e);
  Alcotest.(check bool) "no longer inlining after the run" false
    (Engine.advance_inline e ~at:200);
  let refused e run =
    let got = ref true in
    Engine.schedule_at e ~at:10 (fun () -> got := Engine.advance_inline e ~at:20);
    run e;
    Alcotest.(check bool) "refused" false !got
  in
  refused (Engine.create ()) (fun e -> Engine.run_until e 1_000);
  let routed = Engine.create () in
  Engine.set_router routed
    (Some
       {
         Engine.route =
           (fun ~src:_ ~dst:_ ~delay fn -> Engine.schedule_after routed ~delay fn);
       });
  refused routed Engine.run

let test_engine_every () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.every e ~period:10 (fun () ->
      incr fired;
      !fired < 4);
  Engine.run e;
  Alcotest.(check int) "fires until told to stop" 4 !fired;
  Alcotest.(check int) "last firing time" 40 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter (fun at -> Engine.schedule_at e ~at (fun () -> log := at :: !log)) [ 5; 15; 25 ];
  Engine.run_until e 15;
  Alcotest.(check (list int)) "only events <= horizon" [ 5; 15 ] (List.rev !log);
  Alcotest.(check int) "clock moved to horizon" 15 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "rest runs later" [ 5; 15; 25 ] (List.rev !log)

let test_engine_daemon_events () =
  let e = Engine.create () in
  let daemon_fires = ref 0 in
  let normal_fires = ref 0 in
  Engine.every e ~daemon:true ~period:10 (fun () ->
      incr daemon_fires;
      true);
  Engine.schedule_at e ~at:35 (fun () -> incr normal_fires);
  Engine.run e;
  (* The daemon interleaves while normal work exists, then stops holding
     the run open. *)
  Alcotest.(check int) "normal event ran" 1 !normal_fires;
  Alcotest.(check int) "daemon fired thrice before the horizon" 3 !daemon_fires;
  Alcotest.(check bool) "engine reports empty" true (Engine.is_empty e)

let test_engine_daemon_only_never_runs () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule_after e ~daemon:true ~delay:5 (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "daemon alone does not hold the run" false !fired;
  (* ...but run_until still executes it (for direct clock control). *)
  Engine.run_until e 10;
  Alcotest.(check bool) "run_until executes daemons" true !fired

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true (Rng.next_int64 a <> Rng.next_int64 b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair (int_bound 1000) (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_int_in =
  QCheck.Test.make ~name:"Rng.int_in stays in [lo, hi]" ~count:500
    QCheck.(triple (int_bound 1000) (int_range (-50) 50) (int_bound 100))
    (fun (seed, lo, extra) ->
      let hi = lo + extra in
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.int_in r lo hi in
      v >= lo && v <= hi)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair (int_bound 1000) (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create (Int64.of_int seed)) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_float_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 100 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

(* --- Fnv --- *)

(* Byte strings fold to the published 64-bit FNV-1a vectors, and an int
   folds exactly as the Int64 xor-multiply every pinned fingerprint used. *)
let test_fnv_vectors () =
  let hex s =
    let h = Fnv.create () in
    Fnv.string h s;
    Fnv.to_hex h
  in
  Alcotest.(check string) "empty" "cbf29ce484222325" (hex "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (hex "a");
  Alcotest.(check string) "foobar" "85944171f73967e8" (hex "foobar");
  let h = Fnv.create () in
  List.iter (Fnv.int h) [ -1; max_int; 42 ];
  let r = ref 0xcbf29ce484222325L in
  List.iter
    (fun v -> r := Int64.mul (Int64.logxor !r (Int64.of_int v)) 0x100000001b3L)
    [ -1; max_int; 42 ];
  Alcotest.(check string) "ints" (Printf.sprintf "%016Lx" !r) (Fnv.to_hex h)

(* --- Time --- *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time_ns.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time_ns.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Time_ns.s 1);
  Alcotest.(check (float 1e-9)) "to ms" 1.5 (Time_ns.to_float_ms 1_500_000)

let test_time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time_ns.to_string 999);
  Alcotest.(check string) "us" "1.50us" (Time_ns.to_string 1_500);
  Alcotest.(check string) "ms" "2.000ms" (Time_ns.to_string 2_000_000);
  Alcotest.(check string) "s" "3.000s" (Time_ns.to_string 3_000_000_000)

let suite =
  [
    ("heap: empty", `Quick, test_heap_empty);
    ("heap: basic order", `Quick, test_heap_basic);
    ("heap: merge", `Quick, test_heap_merge);
    ("heap: duplicate keys", `Quick, test_heap_duplicate_keys);
    qtest prop_heap_sorts;
    qtest prop_heap_size;
    qtest prop_heap_merge_is_union;
    qtest prop_heap_size_deep_shape;
    ("eheap: empty", `Quick, test_eheap_empty);
    ("eheap: order and ties", `Quick, test_eheap_order);
    ("eheap: packed-range fallback", `Quick, test_eheap_fallback);
    ("eheap: seq-threshold fallback (sharded wide keys)", `Quick, test_eheap_seq_fallback);
    ("eheap: packed-threshold edges", `Quick, test_eheap_threshold_edges);
    qtest prop_eheap_threshold_straddle;
    qtest prop_eheap_matches_pairing;
    ("eheap: popped payloads are released", `Quick, test_eheap_releases_popped);
    ("engine: time order", `Quick, test_engine_order);
    ("engine: FIFO tie-break", `Quick, test_engine_fifo_ties);
    ("engine: rejects the past", `Quick, test_engine_past_rejected);
    ("engine: nested scheduling", `Quick, test_engine_nested_scheduling);
    ("engine: post defaults to schedule_after", `Quick, test_engine_post_default);
    ("engine: post routes through an installed router", `Quick, test_engine_post_router);
    ("engine: inline steps only as the next event", `Quick, test_engine_advance_inline);
    ("engine: recurring events", `Quick, test_engine_every);
    ("engine: run_until horizon", `Quick, test_engine_run_until);
    ("engine: daemon events interleave", `Quick, test_engine_daemon_events);
    ("engine: daemons don't hold the run", `Quick, test_engine_daemon_only_never_runs);
    ("rng: deterministic", `Quick, test_rng_deterministic);
    ("rng: seed matters", `Quick, test_rng_seed_matters);
    ("rng: copy", `Quick, test_rng_copy);
    ("rng: split", `Quick, test_rng_split_independent);
    qtest prop_rng_int_bounds;
    qtest prop_rng_int_in;
    qtest prop_rng_shuffle_permutes;
    ("rng: float bounds", `Quick, test_rng_float_bounds);
    ("fnv: FNV-1a vectors and the int fold", `Quick, test_fnv_vectors);
    ("time: units", `Quick, test_time_units);
    ("time: pretty printing", `Quick, test_time_pp);
  ]
