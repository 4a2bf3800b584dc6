module Rng = Platinum_sim.Rng

type t = {
  name : string;
  image : (int * int array) list;
  body : node:int -> row:(int -> int) -> rng:Rng.t -> unit;
  verify : (int -> int array) -> bool;
}

let data_base_page = 8
let word_mask = 0xFFFFFFFF

let streams ~seed n =
  let master = Rng.create seed in
  Array.init n (fun _ ->
      let rng = Rng.split master in
      (rng, Rng.next_int64 master))

let seed_cell r c = (((r * 1103515245) + (c * 12345)) land 0xFFFF) + 1

(* Jacobi: rows [0, n) start seeded; each iteration node [r] reads its
   left, right and own rows, barriers, writes their average into its own
   row, then barriers.  The oracle runs the same average over a host copy
   of the grid.  A node's row buffers are allocated once. *)
let jacobi ~n ~pw ~width ~iters =
  let seed = Array.init n (fun r -> Array.init width (seed_cell r)) in
  let neighbours r = [| (r + n - 1) mod n; (r + 1) mod n; r |] in
  let avg rows c = (rows.(0).(c) + rows.(1).(c) + rows.(2).(c)) / 3 land word_mask in
  (* The barrier's count word is word 0 and its generation word is the
     first word of page 1, both in the control region.  On separate
     pages, arrival rmws do not shoot down the spinners' generation
     replicas; only the release write does, which is exactly the
     invalidation that lets them see it. *)
  let barrier = Sync.Barrier.of_addrs ~parties:n ~count_addr:0 ~gen_addr:pw in
  let body ~node:r ~row ~rng:_ =
    let qs = neighbours r in
    let rows = Array.init 3 (fun _ -> Array.make width 0) in
    let out = Array.make width 0 in
    for _ = 1 to iters do
      for i = 0 to 2 do
        Api.block_read_into (row qs.(i)) rows.(i) ~off:0 ~len:width
      done;
      Sync.Barrier.wait barrier;
      for c = 0 to width - 1 do
        out.(c) <- avg rows c
      done;
      Api.block_write (row r) out;
      Sync.Barrier.wait barrier
    done
  in
  let verify words =
    let g = ref seed in
    for _ = 1 to iters do
      let prev = !g in
      let inputs r = Array.map (Array.get prev) (neighbours r) in
      g := Array.init n (fun r -> Array.init width (avg (inputs r)))
    done;
    List.for_all
      (fun r -> Array.for_all2 Int.equal !g.(r) (Array.sub (words r) 0 width))
      (List.init n Fun.id)
  in
  { name = "jacobi"; image = List.init n (fun r -> (r, seed.(r))); body; verify }

(* The request slot is homed at the server, the response slot at the
   client, a sequence word each.  The oracle: every response slot holds
   the last sequence number and every client counted each round trip. *)
let echo ~n ~ops ~rpcs =
  let body ~node ~row ~rng:_ =
    if node land 1 = 1 then begin
      let req = row (node - 1) and resp = row node in
      for i = 1 to ops do
        let payload = (node * 100_003) + i in
        Api.write (req + 1) payload;
        Api.write req i;
        Sync.spin_until (fun () -> Api.read resp = i);
        if Api.read (resp + 1) <> (payload + i) land word_mask then
          failwith "Program rpc_echo: payload mismatch";
        rpcs.(node) <- rpcs.(node) + 1
      done
    end
    else if node + 1 < n then begin
      let req = row node and resp = row (node + 1) in
      for i = 1 to ops do
        Sync.spin_until (fun () -> Api.read req = i);
        let payload = Api.read (req + 1) in
        Api.write (resp + 1) ((payload + i) land word_mask);
        Api.write resp i
      done
    end
  in
  let verify words =
    List.for_all
      (fun p -> (words ((2 * p) + 1)).(0) = ops && rpcs.((2 * p) + 1) = ops)
      (List.init (n / 2) Fun.id)
  in
  { name = "rpc_echo"; image = []; body; verify }
