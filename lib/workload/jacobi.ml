module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type params = {
  n : int;
  iters : int;
  nprocs : int;
  seed : int;
  verify : bool;
}

let compute_ns_per_point = 2_000

let params ?(n = 128) ?(iters = 12) ?(seed = 11) ?(verify = true) ~nprocs () =
  if n < 4 then invalid_arg "Jacobi.params: n must be at least 4";
  if nprocs < 1 || nprocs > n - 2 then invalid_arg "Jacobi.params: bad nprocs";
  { n; iters; nprocs; seed; verify }

let mask = 0xFFFFF

let init_elem p i j =
  let h = ((p.seed * 131) + (i * p.n) + j) * 0x9E3779B9 in
  (h lsr 9) land mask

(* new[i][j] = mean of the four neighbours (integer). *)
let relax ~above ~row ~below ~out =
  let n = Array.length row in
  out.(0) <- row.(0);
  out.(n - 1) <- row.(n - 1);
  for j = 1 to n - 2 do
    out.(j) <- (above.(j) + below.(j) + row.(j - 1) + row.(j + 1)) / 4 land mask
  done

let sequential p =
  let n = p.n in
  let g = ref (Array.init n (fun i -> Array.init n (fun j -> init_elem p i j))) in
  for _iter = 1 to p.iters do
    let cur = !g in
    let next =
      Array.init n (fun i ->
          if i = 0 || i = n - 1 then Array.copy cur.(i)
          else begin
            let out = Array.make n 0 in
            relax ~above:cur.(i - 1) ~row:cur.(i) ~below:cur.(i + 1) ~out;
            out
          end)
    in
    g := next
  done;
  !g

(* Interior rows are block-distributed; row r of each generation lives at
   [buf + r*n] in one of two page-aligned buffers. *)
let make p =
  let out = Outcome.create () in
  let start_ns = ref 0 in
  let main () =
    let n = p.n and nprocs = p.nprocs in
    let words = n * n in
    let buf_a = Api.alloc ~page_aligned:true words in
    let buf_b = Api.alloc ~page_aligned:true words in
    let szone = Api.new_zone "jacobi-sync" ~pages:1 in
    let barrier = Sync.Barrier.make ~zone:szone ~parties:nprocs () in
    (* Interior rows 1..n-2 split into contiguous blocks. *)
    let interior = n - 2 in
    let lo me = 1 + (me * interior / nprocs) in
    let hi me = 1 + ((me + 1) * interior / nprocs) - 1 in
    let worker me =
      (* First touch: initialize my rows (worker 0 also owns the border). *)
      if me = 0 then begin
        Api.block_write buf_a (Array.init n (fun j -> init_elem p 0 j));
        Api.block_write (buf_a + ((n - 1) * n)) (Array.init n (fun j -> init_elem p (n - 1) j));
        Api.block_write buf_b (Array.init n (fun j -> init_elem p 0 j));
        Api.block_write (buf_b + ((n - 1) * n)) (Array.init n (fun j -> init_elem p (n - 1) j))
      end;
      for r = lo me to hi me do
        Api.block_write (buf_a + (r * n)) (Array.init n (fun j -> init_elem p r j))
      done;
      Sync.Barrier.wait barrier;
      if me = 0 then start_ns := Api.now ();
      let src = ref buf_a and dst = ref buf_b in
      for _iter = 1 to p.iters do
        for r = lo me to hi me do
          (* Rows r-1, r, r+1 are contiguous: one 3n-word transaction
             instead of three kernel traps. *)
          let tri = Api.block_read (!src + ((r - 1) * n)) (3 * n) in
          let above = Array.sub tri 0 n and row = Array.sub tri n n in
          let below = Array.sub tri (2 * n) n in
          let fresh = Array.make n 0 in
          relax ~above ~row ~below ~out:fresh;
          Api.compute (n * compute_ns_per_point);
          Api.block_write (!dst + (r * n)) fresh
        done;
        (* Everyone must finish reading generation g before anyone starts
           generation g+2 in the same buffer; one barrier suffices for
           Jacobi's two-buffer scheme. *)
        Sync.Barrier.wait barrier;
        let tmp = !src in
        src := !dst;
        dst := tmp
      done;
      Sync.Barrier.wait barrier;
      if me = 0 then out.Outcome.work_ns <- Api.now () - !start_ns
    in
    Api.spawn_join_all
      ~procs:(List.init nprocs (fun i -> i mod nprocs))
      (List.init nprocs (fun me _ -> worker me));
    if p.verify then begin
      let reference = sequential p in
      let final = if p.iters mod 2 = 0 then buf_a else buf_b in
      let r = ref 1 in
      while !r < n - 1 && out.Outcome.ok do
        let got = Api.block_read (final + (!r * n)) n in
        if not (Array.for_all2 Int.equal got reference.(!r)) then
          Outcome.fail out "jacobi: row %d differs from the oracle" !r;
        incr r
      done
    end
  in
  (out, main)
