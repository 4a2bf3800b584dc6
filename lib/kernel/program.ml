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

(* Jacobi and gauss: rows [0, n) start seeded; each iteration node [r]
   reads rows [pre], barriers, reads rows [post] and writes [next] of
   them (pre then post) into its own row, then barriers.  The oracle runs
   the same [next] over a host copy of the grid.  A node's row buffers
   are allocated once: [pre] and [post] have a fixed length per node. *)
let grid ~name ~n ~pw ~width ~iters ~pre ~post ~next =
  let seed = Array.init n (fun r -> Array.init width (seed_cell r)) in
  (* The barrier's count word is word 0 and its generation word is the
     first word of page 1, both in the control region.  On separate
     pages, arrival rmws do not shoot down the spinners' generation
     replicas; only the release write does, which is exactly the
     invalidation that lets them see it. *)
  let barrier = Sync.Barrier.of_addrs ~parties:n ~count_addr:0 ~gen_addr:pw in
  let body ~node:r ~row ~rng:_ =
    let npre = Array.length (pre ~r ~it:0) in
    let rows = Array.init (npre + Array.length (post ~r ~it:0)) (fun _ -> Array.make width 0) in
    let out = Array.make width 0 in
    let read first qs =
      for i = 0 to Array.length qs - 1 do
        Api.block_read_into (row qs.(i)) rows.(first + i) ~off:0 ~len:width
      done
    in
    for it = 0 to iters - 1 do
      read 0 (pre ~r ~it);
      Sync.Barrier.wait barrier;
      read npre (post ~r ~it);
      for c = 0 to width - 1 do
        out.(c) <- next rows c
      done;
      Api.block_write (row r) out;
      Sync.Barrier.wait barrier
    done
  in
  let verify words =
    let g = ref seed in
    for it = 0 to iters - 1 do
      let prev = !g in
      let inputs r = Array.map (Array.get prev) (Array.append (pre ~r ~it) (post ~r ~it)) in
      g := Array.init n (fun r -> Array.init width (next (inputs r)))
    done;
    List.for_all
      (fun r -> Array.for_all2 Int.equal !g.(r) (Array.sub (words r) 0 width))
      (List.init n Fun.id)
  in
  { name; image = List.init n (fun r -> (r, seed.(r))); body; verify }

let jacobi ~n ~pw ~width ~iters =
  grid ~name:"jacobi" ~n ~pw ~width ~iters
    ~pre:(fun ~r ~it:_ -> [| (r + n - 1) mod n; (r + 1) mod n; r |])
    ~post:(fun ~r:_ ~it:_ -> [||])
    ~next:(fun rows c -> (rows.(0).(c) + rows.(1).(c) + rows.(2).(c)) / 3 land word_mask)

let gauss ~n ~pw ~width ~iters =
  grid ~name:"gauss" ~n ~pw ~width ~iters
    ~pre:(fun ~r:_ ~it -> [| it mod n |])
    ~post:(fun ~r ~it:_ -> [| r |])
    ~next:(fun rows c -> ((3 * rows.(1).(c)) + rows.(0).(c)) land 0xFFFF)

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
