module Api = Platinum_kernel.Api
module Sync = Platinum_kernel.Sync

type params = {
  n : int;
  nprocs : int;
  seed : int;
  verify : bool;
}

let compute_ns_per_word = 3_000

let params ?(n = 400) ?(seed = 42) ?(verify = true) ~nprocs () =
  if n < 2 then invalid_arg "Gauss.params: n must be at least 2";
  if nprocs < 1 then invalid_arg "Gauss.params: nprocs must be positive";
  { n; nprocs; seed; verify }

(* 28-bit values keep factor * pivot inside 62-bit native ints. *)
let value_mask = 0xFFFFFFF

let mix h =
  let h = h * 0x9E3779B9 land max_int in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85EBCA6B land max_int in
  h lxor (h lsr 13)

let init_elem p i j =
  let h = mix ((p.seed * 1_000_003) + (i * p.n) + j) in
  if i = j then 0x100000 + (h land 0xFFFF) else (h land 0x3FF) - 512

let quot a b = if b = 0 then 0 else a / b

(* Eight elements per iteration, one safepoint poll each, after a range
   check that raises directly, so nothing spills (DESIGN.md §4a). *)
let[@inline] step row piv factor j =
  Array.unsafe_set row j
    ((Array.unsafe_get row j - (factor * Array.unsafe_get piv j)) land value_mask)

let eliminate ~row ~piv ~off ~len =
  let factor = quot row.(off) piv.(off) in
  if len < 0 || off > Array.length row - len || off > Array.length piv - len then
    raise (Invalid_argument "Gauss.eliminate: out of range");
  let blocks = len lsr 3 in
  for b = 0 to blocks - 1 do
    let j = off + (b lsl 3) in
    step row piv factor j; step row piv factor (j + 1);
    step row piv factor (j + 2); step row piv factor (j + 3);
    step row piv factor (j + 4); step row piv factor (j + 5);
    step row piv factor (j + 6); step row piv factor (j + 7)
  done;
  for j = off + (blocks lsl 3) to off + len - 1 do
    step row piv factor j
  done

let sequential p =
  let n = p.n in
  let m = Array.init n (fun i -> Array.init n (fun j -> init_elem p i j land value_mask)) in
  for k = 0 to n - 2 do
    for r = k + 1 to n - 1 do
      eliminate ~row:m.(r) ~piv:m.(k) ~off:k ~len:(n - k)
    done
  done;
  m

let make p =
  let out = Outcome.create () in
  let start_ns = ref 0 in
  let main () =
    let n = p.n and nprocs = p.nprocs in
    let owner r = r mod nprocs in
    (* One page-aligned row per allocation: rows with different owners
       never share a page (§6's allocation discipline). *)
    let rows = Array.init n (fun _ -> Api.alloc ~page_aligned:true n) in
    (* The synchronization zone: barrier plus the array of event counts —
       deliberately co-located on the same page(s), as in the paper's
       program (this is the page that gets frozen). *)
    let szone = Api.new_zone "gauss-sync" ~pages:(1 + (n / Api.page_words ())) in
    let barrier = Sync.Barrier.make ~zone:szone ~parties:nprocs () in
    let ec_base = Api.alloc ~zone:szone n in
    let row_ready k = Sync.Event_count.of_addr (ec_base + k) in
    let worker me =
      (* The pivot and row slices of every update land in these two
         buffers, so the elimination loop allocates nothing. *)
      let piv = Array.make n 0 and row = Array.make n 0 in
      (* First touch places each row in its owner's memory. *)
      let r = ref me in
      while !r < n do
        Api.block_write rows.(!r) (Array.init n (fun j -> init_elem p !r j land value_mask));
        r := !r + nprocs
      done;
      Sync.Barrier.wait barrier;
      if me = 0 then start_ns := Api.now ();
      if owner 0 = me then Sync.Event_count.advance (row_ready 0);
      for k = 0 to n - 2 do
        Sync.Event_count.await (row_ready k) 1;
        (* Eliminate my rows below the pivot; the smallest such row is the
           next round's pivot, handled first so its event count advances as
           early as possible.  The pivot slice is read from shared memory
           for every row update — the natural 1989 program; the coherent
           memory turns these re-reads into local references by
           replication, which is where it earns its keep. *)
        let first = k + 1 + ((me - owner (k + 1) + nprocs) mod nprocs) in
        let r = ref first in
        let len = n - k in
        while !r < n do
          Api.block_read_into (rows.(k) + k) piv ~off:0 ~len;
          Api.block_read_into (rows.(!r) + k) row ~off:0 ~len;
          eliminate ~row ~piv ~off:0 ~len;
          Api.compute (len * compute_ns_per_word);
          Api.block_write_sub (rows.(!r) + k) row ~off:0 ~len;
          if !r = k + 1 then Sync.Event_count.advance (row_ready (k + 1));
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
      let reference = sequential p in
      let r = ref 0 in
      while !r < n && out.Outcome.ok do
        let got = Api.block_read rows.(!r) n in
        if not (Array.for_all2 Int.equal got reference.(!r)) then
          Outcome.fail out "gauss: row %d differs from the sequential oracle" !r;
        incr r
      done
    end
  in
  (out, main)
