module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type params = {
  n : int;
  nprocs : int;
  seed : int;
  verify : bool;
}

let params ?(n = 400) ?(seed = 42) ?(verify = true) ~nprocs () =
  if n < 2 then invalid_arg "Gauss_mp.params: n must be at least 2";
  if nprocs < 1 then invalid_arg "Gauss_mp.params: nprocs must be positive";
  { n; nprocs; seed; verify }

let to_gauss p = { Gauss.n = p.n; nprocs = p.nprocs; seed = p.seed; verify = p.verify }

let make p =
  let gp = to_gauss p in
  let out = Outcome.create () in
  let start_ns = ref 0 in
  let main () =
    let n = p.n and nprocs = p.nprocs in
    let owner r = r mod nprocs in
    let rows = Array.init n (fun _ -> Api.alloc ~page_aligned:true n) in
    let szone = Api.new_zone "mp-sync" ~pages:1 in
    let barrier = Sync.Barrier.make ~zone:szone ~parties:nprocs () in
    let inboxes = Array.init nprocs (fun _ -> Api.new_port ()) in
    let worker me =
      (* First touch of this worker's rows.  The page-aligned row buffers
         usually sit a constant distance apart, so one strided transaction
         scatters all of them (elements of n words, one per row);
         non-uniform spacing falls back to per-row block writes. *)
      let my_rows =
        Array.init (if me < n then ((n - 1 - me) / nprocs) + 1 else 0)
          (fun k -> me + (k * nprocs))
      in
      let row_data r = Array.init n (fun j -> Gauss.init_elem gp r j land Gauss.value_mask) in
      let uniform_stride =
        if Array.length my_rows < 2 then None
        else begin
          let d = rows.(my_rows.(1)) - rows.(my_rows.(0)) in
          let ok = ref (d >= n) in
          for k = 2 to Array.length my_rows - 1 do
            if rows.(my_rows.(k)) - rows.(my_rows.(k - 1)) <> d then ok := false
          done;
          if !ok then Some d else None
        end
      in
      (match uniform_stride with
      | Some stride ->
        let data = Array.concat (Array.to_list (Array.map row_data my_rows)) in
        Api.write_stride rows.(my_rows.(0)) ~elem_words:n ~stride data
      | None -> Array.iter (fun r -> Api.block_write rows.(r) (row_data r)) my_rows);
      Sync.Barrier.wait barrier;
      if me = 0 then start_ns := Api.now ();
      (* Pivot slices arrive tagged with their round; out-of-order arrivals
         (a fast downstream owner can overtake a slow broadcast loop) are
         parked until their round comes up. *)
      let pending : (int, int array) Hashtbl.t = Hashtbl.create 8 in
      let rec obtain k =
        match Hashtbl.find_opt pending k with
        | Some piv ->
          Hashtbl.remove pending k;
          piv
        | None ->
          let msg = Api.recv inboxes.(me) in
          let round = msg.(0) in
          let piv = Array.sub msg 1 (Array.length msg - 1) in
          if round = k then piv
          else begin
            Hashtbl.replace pending round piv;
            obtain k
          end
      in
      let broadcast k piv =
        let msg = Array.make (Array.length piv + 1) k in
        Array.blit piv 0 msg 1 (Array.length piv);
        for d = 1 to nprocs - 1 do
          Api.send inboxes.((me + d) mod nprocs) msg
        done
      in
      (* Row 0 is ready as soon as initialization finishes. *)
      if owner 0 = me && nprocs > 1 then broadcast 0 (Api.block_read rows.(0) n);
      for k = 0 to n - 2 do
        let piv =
          if owner k = me then Api.block_read (rows.(k) + k) (n - k)
          else if nprocs = 1 then [||] (* unreachable: owner k = me always *)
          else obtain k
        in
        (* The received slice may start at an earlier column than k (it was
           broadcast when the sender finished updating it); realign. *)
        let piv =
          let extra = Array.length piv - (n - k) in
          if extra > 0 then Array.sub piv extra (n - k) else piv
        in
        let first = k + 1 + ((me - owner (k + 1) + nprocs) mod nprocs) in
        let r = ref first in
        while !r < n do
          let row = Api.block_read (rows.(!r) + k) (n - k) in
          Gauss.eliminate ~row ~piv ~off:0 ~len:(n - k);
          Api.compute ((n - k) * Gauss.compute_ns_per_word);
          Api.block_write (rows.(!r) + k) row;
          if !r = k + 1 && !r <= n - 2 && nprocs > 1 then broadcast (k + 1) row;
          r := !r + nprocs
        done
      done;
      Sync.Barrier.wait barrier;
      if me = 0 then out.Outcome.work_ns <- Api.now () - !start_ns
    in
    Api.spawn_join_all
      ~procs:(List.init nprocs (fun i -> i))
      (List.init nprocs (fun me _ -> worker me));
    if p.verify then begin
      let reference = Gauss.sequential gp in
      let r = ref 0 in
      while !r < n && out.Outcome.ok do
        let got = Api.block_read rows.(!r) n in
        if not (Array.for_all2 Int.equal got reference.(!r)) then
          Outcome.fail out "gauss-mp: row %d differs from the sequential oracle" !r;
        incr r
      done
    end
  in
  (out, main)
