(* The coalescing effect-boundary fast path (DESIGN.md §4g).

   A per-word [Api.read]/[write]/[rmw] stream pays one [Effect.perform]
   and one full kernel dispatch per word, even though PR 5 made the
   memory-system hit itself allocation-free — the 17.9× gap between the
   per-word and batched streams is pure trap overhead.  This module lets
   the kernel *arm* the current fiber before transferring control into
   user code: while armed, [Api.read] and friends drain consecutive word
   accesses inline — no effect, no suspend — provided each one would hit
   the ATC under the seed semantics (translation present, rights
   sufficient, page not frozen, no injected fault pending).  The
   accumulated latency is charged as a single batched operation when the
   fiber next performs any effect (the kernel's [settle]), exactly what a
   block descriptor covering the same words would pay; anything else — a
   miss, a rights fault, a frozen page, a pending fault draw, quantum
   exhaustion — declines and falls back to the unchanged full-suspend
   path.  An armed monitor is not on that list: it sweeps at protocol
   transitions, and a hit makes none on either path.

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
   decide every word from live state (ATC stamp, rights, frozen bit), so
   no remap, freeze, thaw or shootdown has anything here to invalidate; a
   hit makes one Pmap lookup, whose entry carries the page.  The backend supplies only what it alone knows
   ({!ops}); the kernel's arm passes the rest — the machine's fault plane
   and the backend's word cell — and the page shift for {!Phys_mem.vpage}
   is worked out here whenever the backend changes. *)

module Cmap = Platinum_core.Cmap
module Phys_mem = Platinum_phys.Phys_mem
module Inject = Platinum_sim.Inject

(* The operations the memory backend exposes to the coalescer.  All
   closures are built once at backend construction; calling them
   allocates nothing.  [fp_read]/[fp_write]/[fp_rmw] verify the hit
   against live state (active aspace, ATC entry, rights, page not
   frozen) and return its latency, or [-1] — never fault — on anything
   but a clean hit; a successful read/rmw leaves its
   word in the backend's word cell ([Memsys.t.value]). *)
type ops = {
  fp_page_words : int;
  fp_cmap : aspace:int -> Cmap.t option;
      (* the address space's Cmap, called once per arm; [None] (an
         unknown aspace) declines every word of the run.  Returns a stored
         option cell, so the arm allocates nothing. *)
  fp_read : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> int;
      (* the word's latency on a clean hit, [-1] on anything else *)
  fp_write : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> value:int -> int;
  fp_rmw : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> f:(int -> int) -> int;
}

type stats = {
  mutable runs : int;  (* settles that closed a non-empty run *)
  mutable coalesced : int;  (* words drained inline *)
  mutable fallbacks : int;  (* eligible-armed accesses that declined *)
}

(* Bound on words drained within one engine event: a [while true do
   Api.read done] loop must not starve the engine forever. *)
let run_cap = 4096

(* The backend a fresh context holds: it knows no address space, so an
   arm against it would decline every word.  The kernel arms only with a
   real backend's ops; this value just lets [ops] be a plain field. *)
let never =
  {
    fp_page_words = 1;
    fp_cmap = (fun ~aspace:_ -> None);
    fp_read = (fun ~now:_ ~proc:_ ~cmap:_ ~vpage:_ ~vaddr:_ -> -1);
    fp_write = (fun ~now:_ ~proc:_ ~cmap:_ ~vpage:_ ~vaddr:_ ~value:_ -> -1);
    fp_rmw = (fun ~now:_ ~proc:_ ~cmap:_ ~vpage:_ ~vaddr:_ ~f:_ -> -1);
  }

type ctx = {
  mutable armed : bool;
  mutable ops : ops;
  mutable page_shift : int;
      (* log2 of [ops.fp_page_words] when it is a power of two (the
         per-word page split becomes a shift), [-1] otherwise (divide) *)
  mutable value : int ref;  (* the backend's word cell *)
  mutable plane : Inject.t option;  (* the machine's fault plane *)
  mutable cmap : Cmap.t option;  (* the armed fiber's address space *)
  mutable base : int;  (* engine time of the arming event *)
  mutable acc : int;  (* latency accumulated by the in-flight run *)
  mutable run_words : int;
  mutable proc : int;
  mutable quantum_left : int;  (* ns of quantum the run may consume *)
  st : stats;
}

let make_ctx () =
  {
    armed = false;
    ops = never;
    page_shift = 0;
    value = ref 0;
    plane = None;
    cmap = None;
    base = 0;
    acc = 0;
    run_words = 0;
    proc = 0;
    quantum_left = 0;
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

(* [inject] is the machine's fault plane and [value] the backend's word
   cell.  The pointer fields are stored only when they change: they rarely
   do between arms, and a store costs a write barrier. *)
let arm c ops ~inject ~value ~base ~proc ~aspace ~quantum_left =
  c.armed <- true;
  if c.ops != ops then begin
    c.ops <- ops;
    c.page_shift <- Phys_mem.page_shift ops.fp_page_words
  end;
  if c.value != value then c.value <- value;
  if c.plane != inject then c.plane <- inject;
  let cmap = ops.fp_cmap ~aspace in
  if c.cmap != cmap then c.cmap <- cmap;
  c.base <- base;
  c.acc <- 0;
  c.run_words <- 0;
  c.proc <- proc;
  c.quantum_left <- quantum_left

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

let value c = !(c.value)

(* The backend's verdict on a word: its latency joins the run, or [-1]
   declines it. *)
let[@inline] finish c lat =
  if lat < 0 then begin
    c.st.fallbacks <- c.st.fallbacks + 1;
    false
  end
  else begin
    c.acc <- c.acc + lat;
    c.run_words <- c.run_words + 1;
    c.st.coalesced <- c.st.coalesced + 1;
    true
  end

let[@inline] vpage_of c vaddr =
  Phys_mem.vpage ~shift:c.page_shift ~page_words:c.ops.fp_page_words vaddr

(* A word whose next module draw would inject must take the full path, so
   the fault is handled (and recovered) there.  Per word, because inline
   hits consume draws at the interconnect; a rate-0 plane never injects
   and its peek answers at once. *)
let[@inline] inject_ok c =
  match c.plane with
  | None -> true
  | Some inj -> not (Inject.peek_module_fault inj)

(* The gate every word passes before the backend sees it: the context is
   armed, the address space has a Cmap, and the run is open (address
   sign, quantum, engine-liveness cap, injection).  Returns that Cmap (the
   stored option cell), or [None]; a word refused while armed counts as
   a fallback. *)
let[@inline] gate c vaddr =
  if not c.armed then None
  else
    match c.cmap with
    | Some _ as cm
      when vaddr >= 0 && c.acc < c.quantum_left && c.run_words < run_cap && inject_ok c ->
      cm
    | _ ->
      c.st.fallbacks <- c.st.fallbacks + 1;
      None

let try_read c vaddr =
  match gate c vaddr with
  | None -> false
  | Some cmap ->
    finish c
      (c.ops.fp_read ~now:(c.base + c.acc) ~proc:c.proc ~cmap ~vpage:(vpage_of c vaddr) ~vaddr)

let try_write c vaddr value =
  match gate c vaddr with
  | None -> false
  | Some cmap ->
    finish c
      (c.ops.fp_write ~now:(c.base + c.acc) ~proc:c.proc ~cmap ~vpage:(vpage_of c vaddr) ~vaddr
         ~value)

let try_rmw c vaddr f =
  match gate c vaddr with
  | None -> false
  | Some cmap ->
    finish c
      (c.ops.fp_rmw ~now:(c.base + c.acc) ~proc:c.proc ~cmap ~vpage:(vpage_of c vaddr) ~vaddr ~f)

(* --- introspection (tests, the bench gates) --- *)

let stats c = c.st

let reset_stats c =
  c.st.runs <- 0;
  c.st.coalesced <- 0;
  c.st.fallbacks <- 0
