(* The coalescing effect-boundary fast path (DESIGN.md §4g).

   A per-word [Api.read]/[write]/[rmw] stream pays one [Effect.perform]
   and one full kernel dispatch per word, even though PR 5 made the
   memory-system hit itself allocation-free — the 17.9× gap between the
   per-word and batched streams is pure trap overhead.  This module lets
   the kernel *arm* the current fiber before transferring control into
   user code: while armed, [Api.read] and friends drain consecutive word
   accesses inline — no effect, no suspend — provided each one would hit
   the ATC under the seed semantics (translation present, rights
   sufficient, page not frozen, monitor disarmed, no injected fault
   pending).  The accumulated latency is charged as a single batched
   operation when the fiber next performs any effect (the kernel's
   [settle]), exactly what a block descriptor covering the same words
   would pay; anything else — a miss, a rights fault, a frozen page, an
   armed monitor, a pending fault draw, quantum exhaustion — declines and
   falls back to the unchanged full-suspend path.

   Soundness rests on a property of the engine: the fiber runs inline
   within the engine event that resumed it, so no other simulation event
   can fire between the arm point and the settle point.  Coalesced words
   execute physically at the event time [base] but are charged at
   [base + acc]; per-thread charge timelines are identical to the seed,
   and a one-word run is byte-identical to it (the seed's submit is also
   synchronous at the same engine time).

   A multi-word run is not exact when another processor contends for
   the same memory module.  Word j is simulated at [base + acc_j], so
   the module's busy horizon moves to that future time within this one
   event; another processor's access that arrives earlier, but in a
   later event, then queues behind it.  Word by word, that access would
   have been served first.  DESIGN.md §4g gives the measured gap and
   the exact variant (ROADMAP item 8).

   The context is per-domain ([Domain.DLS]) because fibers execute on the
   domain that resumed them and grid-parallel sweeps run one simulation
   per domain.  It caches no eligibility verdict: the backend's word ops
   decide every word from live state (ATC entry, rights, frozen bit,
   monitor), so no remap, freeze, thaw, shootdown or monitor change has
   anything here to invalidate. *)

module Cmap = Platinum_core.Cmap

(* The operations the memory backend exposes to the coalescer.  All
   closures are built once at backend construction; calling them
   allocates nothing.  [fp_read]/[fp_write]/[fp_rmw] verify the hit
   against live state (active aspace, ATC entry, rights, monitor
   disarmed, page not frozen) and return its latency, or [-1] — never
   fault — on anything but a clean hit; the value of a successful
   read/rmw sits in the shared [fp_value] cell. *)
type ops = {
  fp_page_words : int;
  fp_page_shift : int;
      (* log2 of fp_page_words when it is a power of two (the per-word
         page split becomes a shift), [-1] otherwise (divide) *)
  fp_cmap : aspace:int -> Cmap.t option;
      (* the address space's Cmap, called once per arm; [None] (an
         unknown aspace) declines every word of the run.  Returns a stored
         option cell, so the arm allocates nothing. *)
  fp_inject_live : unit -> bool;
      (* whether a fault plane with a non-zero rate is attached; sampled
         once per arm to decide if [fp_ok_now] must run per word *)
  fp_ok_now : unit -> bool;
      (* injection gate: [false] when the fault plane's next module draw
         would inject — the word must take the full-suspend path so the
         fault is handled (and recovered) there.  Per-word because inline
         hits consume draws at the interconnect, advancing the stream. *)
  fp_read : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> int;
      (* the word's latency on a clean hit, [-1] on anything else *)
  fp_write : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> value:int -> int;
  fp_rmw : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> f:(int -> int) -> int;
  fp_value : int ref;  (* cell holding the last successful fp_read/fp_rmw result *)
}

type stats = {
  mutable runs : int;  (* settles that closed a non-empty run *)
  mutable coalesced : int;  (* words drained inline *)
  mutable fallbacks : int;  (* eligible-armed accesses that declined *)
}

(* Bound on words drained within one engine event: a [while true do
   Api.read done] loop must not starve the engine forever. *)
let run_cap = 4096

type ctx = {
  mutable armed : bool;
  mutable ops : ops option;
  mutable cmap : Cmap.t option;  (* the armed fiber's address space *)
  mutable base : int;  (* engine time of the arming event *)
  mutable acc : int;  (* latency accumulated by the in-flight run *)
  mutable run_words : int;
  mutable proc : int;
  mutable quantum_left : int;  (* ns of quantum the run may consume *)
  mutable check_inject : bool;  (* a live fault plane requires fp_ok_now per word *)
  mutable out_value : int;  (* result slot for try_read/try_rmw *)
  st : stats;
}

let make_ctx () =
  {
    armed = false;
    ops = None;
    cmap = None;
    base = 0;
    acc = 0;
    run_words = 0;
    proc = 0;
    quantum_left = 0;
    check_inject = false;
    out_value = 0;
    st = { runs = 0; coalesced = 0; fallbacks = 0 };
  }

(* One context per domain: fibers run on the domain that resumed them and
   each domain drives at most one simulation event at a time, so the
   context is never shared.
   lint: allow toplevel-state — Domain.DLS is the sanctioned per-domain
   container; the key itself is immutable and the init closure builds a
   fresh context per domain. *)
let key = Domain.DLS.new_key (fun () -> make_ctx ())

let ctx () = Domain.DLS.get key

(* --- kernel side --- *)

(* lint: allow zero-alloc — the [Some ops] refresh fires once per backend
   handoff (a different simulation reusing the domain); in steady state
   the [==] guard keeps the cell physically unchanged and the arm is
   allocation-free. *)
let arm c ops ~base ~proc ~aspace ~quantum_left =
  c.armed <- true;
  (match c.ops with Some o when o == ops -> () | _ -> c.ops <- Some ops);
  c.cmap <- ops.fp_cmap ~aspace;
  c.base <- base;
  c.acc <- 0;
  c.run_words <- 0;
  c.proc <- proc;
  c.quantum_left <- quantum_left;
  c.check_inject <- ops.fp_inject_live ()

(* Close the in-flight run: disarm and return the accumulated latency the
   kernel must charge (0 = nothing coalesced, the settle is free). *)
let close c =
  if not c.armed then 0
  else begin
    c.armed <- false;
    let acc = c.acc in
    if c.run_words > 0 then c.st.runs <- c.st.runs + 1;
    acc
  end

let armed c = c.armed

(* --- user side (called from Api) --- *)

let value c = c.out_value

let decline c =
  c.st.fallbacks <- c.st.fallbacks + 1;
  false

(* A word the backend completed inline: account for it in the run. *)
let[@inline] accept c lat =
  c.acc <- c.acc + lat;
  c.run_words <- c.run_words + 1;
  c.st.coalesced <- c.st.coalesced + 1;
  true

let[@inline] vpage_of ops vaddr =
  if ops.fp_page_shift >= 0 then vaddr lsr ops.fp_page_shift else vaddr / ops.fp_page_words

(* The run-level gates every word passes before the backend sees it:
   address sign, quantum, engine-liveness cap, injection. *)
let[@inline] run_open c ops vaddr =
  vaddr >= 0 && c.acc < c.quantum_left && c.run_words < run_cap
  && ((not c.check_inject) || ops.fp_ok_now ())

let try_read c vaddr =
  if not c.armed then false
  else
    match c.ops with
    | None -> false
    | Some ops -> (
      if not (run_open c ops vaddr) then decline c
      else
        match c.cmap with
        | None -> decline c
        | Some cm ->
          let lat =
            ops.fp_read ~now:(c.base + c.acc) ~proc:c.proc ~cmap:cm ~vpage:(vpage_of ops vaddr)
              ~vaddr
          in
          if lat < 0 then decline c
          else begin
            c.out_value <- !(ops.fp_value);
            accept c lat
          end)

let try_write c vaddr value =
  if not c.armed then false
  else
    match c.ops with
    | None -> false
    | Some ops -> (
      if not (run_open c ops vaddr) then decline c
      else
        match c.cmap with
        | None -> decline c
        | Some cm ->
          let lat =
            ops.fp_write ~now:(c.base + c.acc) ~proc:c.proc ~cmap:cm
              ~vpage:(vpage_of ops vaddr) ~vaddr ~value
          in
          if lat < 0 then decline c else accept c lat)

let try_rmw c vaddr f =
  if not c.armed then false
  else
    match c.ops with
    | None -> false
    | Some ops -> (
      if not (run_open c ops vaddr) then decline c
      else
        match c.cmap with
        | None -> decline c
        | Some cm ->
          let lat =
            ops.fp_rmw ~now:(c.base + c.acc) ~proc:c.proc ~cmap:cm ~vpage:(vpage_of ops vaddr)
              ~vaddr ~f
          in
          if lat < 0 then decline c
          else begin
            c.out_value <- !(ops.fp_value);
            accept c lat
          end)

(* --- introspection (tests, the bench gates) --- *)

let stats c = c.st

let reset_stats c =
  c.st.runs <- 0;
  c.st.coalesced <- 0;
  c.st.fallbacks <- 0
