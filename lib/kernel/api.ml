module Memtxn = Platinum_core.Memtxn

let access txn = Effect.perform (Eff.Access_txn txn)

(* The word operations probe the coalescing fast path first (DESIGN.md
   §4g): while the kernel has armed the current fiber and the access is a
   clean ATC hit, it completes inline — no effect, no suspend — and
   its cost joins the run's batched charge.  Anything else performs the
   effect exactly as before.  Run detection is automatic: consecutive
   [read]/[write]/[rmw] calls form runs with no [?bulk] variants. *)
let read vaddr =
  let c = Fastpath.ctx () in
  if Fastpath.try_read c vaddr then Fastpath.value c else access (Memtxn.Read { vaddr })

let write vaddr value =
  let c = Fastpath.ctx () in
  if Fastpath.try_write c vaddr value then ()
  else ignore (access (Memtxn.Write { vaddr; value }))

let rmw vaddr f =
  let c = Fastpath.ctx () in
  if Fastpath.try_rmw c vaddr f then Fastpath.value c else access (Memtxn.Rmw { vaddr; f })

(* The slice transactions validate before the trap, so a bad slice raises
   with no simulated time charged. *)
let access_valid txn =
  Memtxn.validate txn;
  ignore (access txn)

let block_read_into vaddr dst ~off ~len =
  access_valid (Memtxn.Block_read { vaddr; dst; dst_off = off; len })

let block_write_sub vaddr src ~off ~len =
  access_valid (Memtxn.Block_write { vaddr; src; src_off = off; len })

let block_read vaddr len =
  let dst = Array.make (Int.max len 0) 0 in
  block_read_into vaddr dst ~off:0 ~len;
  dst

let block_write vaddr src = block_write_sub vaddr src ~off:0 ~len:(Array.length src)

let write_stride ?(elem_words = 1) vaddr ~stride src =
  if elem_words <= 0 then
    invalid_arg (Printf.sprintf "write_stride: elem_words %d must be positive" elem_words);
  (* A ragged tail would silently truncate: the old code floored the
     element count, dropping up to [elem_words - 1] trailing words. *)
  if Array.length src mod elem_words <> 0 then
    invalid_arg
      (Printf.sprintf "write_stride: data length %d is not a multiple of elem_words %d"
         (Array.length src) elem_words);
  let count = Array.length src / elem_words in
  access_valid (Memtxn.Stride_write { vaddr; src; src_off = 0; count; elem_words; stride })
let compute ns = if ns > 0 then Effect.perform (Eff.Compute ns)

(* Services with no payload perform shared toplevel requests, so the
   perform allocates no [Syscall] wrapper. *)
let now_req = Eff.Syscall Eff.Now
let inject_handle_req = Eff.Syscall Eff.Inject_handle
let yield_req = Eff.Syscall Eff.Yield
let self_req = Eff.Syscall Eff.Self
let my_proc_req = Eff.Syscall Eff.My_proc
let new_port_req = Eff.Syscall Eff.New_port
let page_words_req = Eff.Syscall Eff.Page_words
let my_aspace_req = Eff.Syscall Eff.My_aspace
let new_aspace_req = Eff.Syscall Eff.New_aspace
let syscall req = Effect.perform (Eff.Syscall req)
let now () = Effect.perform now_req
let sleep ns = if ns > 0 then Effect.perform (Eff.Sleep ns)
let inject_handle () = Effect.perform inject_handle_req
let spawn ?proc ?aspace body = syscall (Eff.Spawn (body, proc, aspace))
let join tid = syscall (Eff.Join tid)

let spawn_join_all ?procs bodies =
  let place i =
    match procs with
    | None -> None
    | Some [] -> None
    | Some ps -> Some (List.nth ps (i mod List.length ps))
  in
  let tids = List.mapi (fun i body -> spawn ?proc:(place i) (fun () -> body i)) bodies in
  List.iter join tids

let yield () = Effect.perform yield_req
let migrate proc = syscall (Eff.Migrate proc)
let self () = Effect.perform self_req
let my_proc () = Effect.perform my_proc_req
let new_port () = Effect.perform new_port_req
let send port msg = syscall (Eff.Port_send (port, msg))
let recv port = syscall (Eff.Port_recv port)
let new_zone name ~pages = syscall (Eff.New_zone (name, pages))
let alloc ?(zone = 0) ?(page_aligned = false) words =
  syscall (Eff.Alloc (zone, words, page_aligned))

let alloc_pages ?(zone = 0) pages = syscall (Eff.Alloc_pages (zone, pages))
let page_words () = Effect.perform page_words_req
let advise vaddr len advice = syscall (Eff.Advise (vaddr, len, advice))
let my_aspace () = Effect.perform my_aspace_req
let new_aspace () = Effect.perform new_aspace_req
let new_segment name ~pages = syscall (Eff.New_segment (name, pages))
let map_segment segment = syscall (Eff.Map_segment segment)
