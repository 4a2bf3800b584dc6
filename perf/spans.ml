(* Host-time spans around the layer boundaries a traced run can reach
   from outside the library: the Memsys record handed to Kernel.create.

   Nothing is logged per call; each boundary keeps an aggregate (calls,
   host ns, minor-heap words, data words or hits), because the per-word
   stencil crosses the fast-path boundary tens of millions of times.  The
   whole traced run is the root span; the two boundaries below are its
   children and never nest in each other (the kernel calls submit, user
   code calls the fast path), so the root's self time is the root minus
   both. *)

module Memsys = Platinum_kernel.Memsys
module Fastpath = Platinum_kernel.Fastpath
module Memtxn = Platinum_core.Memtxn

(* Monotonic host nanoseconds.  Inlined from bechamel's stub, the int64
   stays unboxed, so reading the clock allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type span = {
  mutable calls : int;
  mutable ns : int;
  mutable minor_words : int;
  mutable data_words : int;  (* submit: words the transactions moved *)
  mutable hits : int;  (* fast path: words drained inline *)
}

type t = { submit : span; fastpath : span }

let span () = { calls = 0; ns = 0; minor_words = 0; data_words = 0; hits = 0 }
let create () = { submit = span (); fastpath = span () }

let wrap_submit sp (submit : now:int -> proc:int -> aspace:int -> Memtxn.t -> _) ~now ~proc
    ~aspace txn =
  let m0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = submit ~now ~proc ~aspace txn in
  let t1 = now_ns () in
  let m1 = Gc.minor_words () in
  sp.calls <- sp.calls + 1;
  sp.ns <- sp.ns + (t1 - t0);
  sp.minor_words <- sp.minor_words + int_of_float (m1 -. m0);
  sp.data_words <- sp.data_words + Memtxn.data_words txn;
  r

(* A fast-path word op returns its latency on a clean hit and -1 when it
   declines; either way the call is one crossing. *)
let record sp t0 latency =
  sp.calls <- sp.calls + 1;
  sp.ns <- sp.ns + (now_ns () - t0);
  if latency >= 0 then sp.hits <- sp.hits + 1;
  latency

let wrap_fastpath sp (o : Fastpath.ops) =
  {
    o with
    Fastpath.fp_read =
      (fun ~now ~proc ~cmap ~vpage ~vaddr ->
        let t0 = now_ns () in
        record sp t0 (o.Fastpath.fp_read ~now ~proc ~cmap ~vpage ~vaddr));
    fp_write =
      (fun ~now ~proc ~cmap ~vpage ~vaddr ~value ->
        let t0 = now_ns () in
        record sp t0 (o.Fastpath.fp_write ~now ~proc ~cmap ~vpage ~vaddr ~value));
    fp_rmw =
      (fun ~now ~proc ~cmap ~vpage ~vaddr ~f ->
        let t0 = now_ns () in
        record sp t0 (o.Fastpath.fp_rmw ~now ~proc ~cmap ~vpage ~vaddr ~f));
  }

let wrap t (m : Memsys.t) =
  {
    m with
    Memsys.submit = wrap_submit t.submit m.Memsys.submit;
    fastpath = Option.map (wrap_fastpath t.fastpath) m.Memsys.fastpath;
  }

let per f n = if n = 0 then 0.0 else f /. float_of_int n

(* The span metrics under their catalogue names, given the root span's
   host seconds. *)
let metrics t ~root_s =
  let s sp = float_of_int sp.ns *. 1e-9 in
  let sub = t.submit and fp = t.fastpath in
  [
    ("kernel.self_s", root_s -. s sub -. s fp);
    ("core.submit.calls", float_of_int sub.calls);
    ("core.submit_s", s sub);
    ("core.submit.ns_per_call", per (float_of_int sub.ns) sub.calls);
    ("core.submit.words_per_call", per (float_of_int sub.data_words) sub.calls);
    ("core.submit.minor_words_per_call", per (float_of_int sub.minor_words) sub.calls);
    ("core.fastpath.calls", float_of_int fp.calls);
    ("core.fastpath_s", s fp);
    ("core.fastpath.ns_per_call", per (float_of_int fp.ns) fp.calls);
    ("core.fastpath.hit_frac", per (float_of_int fp.hits) fp.calls);
  ]
