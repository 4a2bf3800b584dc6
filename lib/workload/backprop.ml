module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type params = {
  units : int;
  patterns : int;
  epochs : int;
  settle_steps : int;
  nprocs : int;
  seed : int;
  verify : bool;
  bulk : bool;
}

let compute_ns_per_connection = 8_700

let params ?(units = 40) ?(patterns = 16) ?(epochs = 5) ?(settle_steps = 2) ?(seed = 3)
    ?(verify = true) ?(bulk = true) ~nprocs () =
  if units < 2 then invalid_arg "Backprop.params: need at least 2 units";
  { units; patterns; epochs; settle_steps; nprocs; seed; verify; bulk }

(* Fixed-point: values are scaled by 2^10; a crude saturating "sigmoid"
   keeps everything bounded. *)
let scale = 1 lsl 10
let squash v = if v > scale then scale else if v < -scale then -scale else v

let input_bit p pat u = (((p.seed * 31) + (pat * 131) + (u * 17)) * 0x9E3779B9 lsr 7) land 1

let make p =
  let out = Outcome.create () in
  let start_ns = ref 0 in
  let main () =
    let u = p.units and nprocs = p.nprocs in
    (* All network state lives in one zone with no padding: exactly the
       naive layout whose fine-grain write-sharing the paper describes. *)
    let act = Api.alloc u in
    let weights = Api.alloc (u * u) in
    let w i j = weights + (i * u) + j in
    let szone = Api.new_zone "bp-sync" ~pages:1 in
    let barrier = Sync.Barrier.make ~zone:szone ~parties:nprocs () in
    (* Units this worker owns starting from [first]: first, first+nprocs, ... *)
    let owned first = if first >= u then 0 else ((u - 1 - first) / nprocs) + 1 in
    let worker me =
      (* Initialize the slice this worker owns: small deterministic
         weights. *)
      let i = ref me in
      while !i < u do
        let row = Array.init u (fun j -> (((!i * u) + j + p.seed) mod 7) - 3) in
        Api.block_write (w !i 0) row;
        if not p.bulk then Api.write (act + !i) 0;
        i := !i + nprocs
      done;
      (* Bulk mode scatters the activation zeros in one strided write. *)
      if p.bulk && me < u then
        Api.write_stride (act + me) ~stride:nprocs (Array.make (owned me) 0);
      Sync.Barrier.wait barrier;
      if me = 0 then start_ns := Api.now ();
      for _epoch = 1 to p.epochs do
        for pat = 0 to p.patterns - 1 do
          (* Clamp the input layer (first quarter of the units). *)
          let inputs = Int.max 1 (u / 4) in
          if p.bulk then begin
            if me < inputs then begin
              let count = ((inputs - 1 - me) / nprocs) + 1 in
              Api.write_stride (act + me) ~stride:nprocs
                (Array.init count (fun k -> input_bit p pat (me + (k * nprocs)) * scale))
            end
          end
          else begin
            let i = ref me in
            while !i < inputs do
              Api.write (act + !i) (input_bit p pat !i * scale);
              i := !i + nprocs
            done
          end;
          (* Forward relaxation: no synchronization between threads —
             "depending only on the atomicity of memory operations".  Bulk
             mode snapshots the activation vector and the weight row in
             two block reads instead of 2u word traps; the relaxation
             tolerates either granularity of staleness. *)
          for _step = 1 to p.settle_steps do
            let i = ref (inputs + me) in
            while !i < u do
              let sum = ref 0 in
              if p.bulk then begin
                let acts = Api.block_read act u in
                let wrow = Api.block_read (w !i 0) u in
                for j = 0 to u - 1 do
                  sum := !sum + (acts.(j) * wrow.(j) / scale)
                done
              end
              else
                for j = 0 to u - 1 do
                  let a = Api.read (act + j) in
                  let wij = Api.read (w !i j) in
                  sum := !sum + (a * wij / scale)
                done;
              Api.compute (u * compute_ns_per_connection);
              Api.write (act + !i) (squash (!sum / 4));
              i := !i + nprocs
            done
          done;
          (* Backward pass: each owner updates its units' weight rows from
             the (shared, unsynchronized) activations. *)
          let outputs = Int.max 1 (u / 4) in
          let i = ref (inputs + me) in
          while !i < u do
            let is_output = !i >= u - outputs in
            let target = if is_output then input_bit p pat (!i - (u - outputs)) * scale else 0 in
            let a_i = Api.read (act + !i) in
            let err = if is_output then target - a_i else a_i / 8 in
            if p.bulk then begin
              let acts = Api.block_read act u in
              let wrow = Api.block_read (w !i 0) u in
              for j = 0 to u - 1 do
                wrow.(j) <- squash (wrow.(j) + (err * acts.(j) / (scale * 16)))
              done;
              Api.block_write (w !i 0) wrow
            end
            else
              for j = 0 to u - 1 do
                let a_j = Api.read (act + j) in
                let wij = Api.read (w !i j) in
                Api.write (w !i j) (squash (wij + (err * a_j / (scale * 16))))
              done;
            Api.compute (u * compute_ns_per_connection);
            i := !i + nprocs
          done
        done
      done;
      Sync.Barrier.wait barrier;
      if me = 0 then out.Outcome.work_ns <- Api.now () - !start_ns
    in
    Api.spawn_join_all
      ~procs:(List.init nprocs (fun i -> i))
      (List.init nprocs (fun me _ -> worker me));
    if p.verify then begin
      (* Boundedness + the training actually moved the weights. *)
      let final = Api.block_read weights (u * u) in
      let moved = ref false in
      Array.iteri
        (fun idx v ->
          if abs v > scale then
            Outcome.fail out "backprop: weight %d = %d escaped the fixed-point range" idx v;
          let init = (((idx + p.seed) mod 7) - 3 : int) in
          if v <> init then moved := true)
        final;
      Outcome.require out !moved "backprop: training never changed any weight"
    end
  in
  (out, main)
