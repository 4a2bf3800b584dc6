(** The coalescing effect-boundary fast path (DESIGN.md §4g).

    While a fiber is {e armed} (between the kernel event that resumed it
    and its next effect), [Api.read]/[write]/[rmw] drain word accesses
    inline through the backend's {!ops} — no effect, no suspend — as long
    as each would hit the ATC under seed semantics.  The
    accumulated latency is charged as one batched operation at the next
    effect boundary (the kernel's settle); any miss, rights fault, frozen
    page, pending injected fault or quantum exhaustion declines and takes
    the unchanged full-suspend path.  An armed monitor plays no part.

    The backend supplies only what it alone knows: its page size, its
    Cmaps and the three hit-only word ops.  The kernel passes the
    machine's fault plane and the backend's word cell at each {!arm}.
    The backend decides every word from live state, so the coalescer
    caches no verdict and nothing needs invalidating when a remap,
    freeze, thaw or shootdown moves that state. *)

(** Backend operations; see the implementation for per-field contracts.
    The word ops return the access latency on a clean hit, [-1] on
    anything else; a read or rmw hit leaves its word in the backend's
    word cell ([Memsys.t.value]). *)
type ops = {
  fp_page_words : int;
  fp_cmap : aspace:int -> Platinum_core.Cmap.t option;
  fp_read : now:int -> proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> vaddr:int -> int;
  fp_write :
    now:int -> proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> vaddr:int ->
    value:int -> int;
  fp_rmw :
    now:int -> proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> vaddr:int ->
    f:(int -> int) -> int;
}

type ctx
(** The per-domain coalescing context. *)

val ctx : unit -> ctx
(** This domain's context ([Domain.DLS]). *)

(* --- kernel side --- *)

val arm :
  ctx -> ops -> inject:Platinum_sim.Inject.t option -> value:int ref -> base:int -> proc:int ->
  aspace:int -> quantum_left:int -> unit
(** Arm the context for the fiber about to run: [inject] is the machine's
    fault plane (a word whose next module draw would inject declines),
    [value] the backend's word cell, [base] the engine time of this
    event, [quantum_left] the quantum budget a run may consume ([max_int]
    when the thread cannot be preempted).  Allocates nothing, also when
    [ops] differ from the last arm's. *)

val close : ctx -> int
(** Disarm and return the accumulated latency to charge (0 = nothing was
    coalesced; the settle must then be free of any engine event). *)

val armed : ctx -> bool

(* --- user side --- *)

val try_read : ctx -> int -> bool
(** [true]: the word was drained inline; read it with {!value}. *)

val try_write : ctx -> int -> int -> bool
val try_rmw : ctx -> int -> (int -> int) -> bool

val value : ctx -> int
(** The word a successful {!try_read} or {!try_rmw} left in the backend's
    word cell. *)

(* --- introspection --- *)

type stats = {
  mutable runs : int;
  mutable coalesced : int;
  mutable fallbacks : int;
}

val stats : ctx -> stats
val reset_stats : ctx -> unit
