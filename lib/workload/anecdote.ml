module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type params = {
  nprocs : int;
  iters : int;
  old_version : bool;
}

let params ?(iters = 4_000) ~old_version ~nprocs () = { nprocs; iters; old_version }

(* Each iteration reads the size variable [reads_per_iter] times, then
   computes for [compute_ns_per_iter]. *)
let reads_per_iter = 4
let compute_ns_per_iter = 10_000

let make p =
  let out = Outcome.create () in
  let start_ns = ref 0 in
  let main () =
    let nprocs = p.nprocs in
    (* One page holds the startup parameters... and someone later added a
       spin lock to it. *)
    let param_page = Api.alloc_pages 1 in
    let msize_addr = param_page in
    let start_lock = param_page + 8 in
    let matrix_size = 800 in
    Api.write msize_addr matrix_size;
    Api.write start_lock 1 (* held: slaves spin until the master releases *);
    let worker me =
      (* The measurement "barrier": spin on the lock word.  The spinning
         (reads) and the master's release (a write) make the page look
         actively write-shared — it freezes. *)
      Sync.spin_until (fun () -> Api.read start_lock = 0);
      (* The fixed version makes a private, thread-local copy first. *)
      let private_msize = if p.old_version then -1 else Api.read msize_addr in
      for _i = 1 to p.iters do
        (* Inner loop: termination test reads the size variable. *)
        for _r = 1 to reads_per_iter do
          let size = if p.old_version then Api.read msize_addr else private_msize in
          if size <> matrix_size then
            Outcome.fail out "anecdote: worker %d read size %d" me size
        done;
        Api.compute compute_ns_per_iter
      done
    in
    let tids =
      List.init nprocs (fun me -> Api.spawn ~proc:me (fun () -> worker me))
    in
    (* Give the slaves a moment to reach the lock, then open it: the write
       that invalidates all their replicas. *)
    Api.compute 3_000_000;
    start_ns := Api.now ();
    Api.write start_lock 0;
    List.iter Api.join tids;
    out.Outcome.work_ns <- Api.now () - !start_ns
  in
  (out, main)
