type advice = Platinum_core.Coherent.advice = Freeze | Thaw | Home of int

(* Asynchronous completion for distributed backends (DESIGN.md §4j): a
   backend whose remote operations travel as protocol messages between
   per-node engines cannot return a latency synchronously — the cost *is*
   when the reply arrives.  [try_remote] either adopts the transaction
   (returns [true]; [complete ~delay word] will be called exactly once on
   the submitting node, and the thread resumes with [word], 0 unless a
   [Read] or [Rmw], [delay] ns after that call) or declines (returns
   [false]; the kernel falls back to the synchronous [submit]).
   [delay = 0] may come only from a later engine event; [delay >= 1] may
   come inside [try_remote] too.  [try_remote] must not raise after
   adopting; validation errors are declined so [submit] can raise them
   on the kernel's normal error path. *)
type remote = {
  try_remote :
    now:int ->
    proc:int ->
    aspace:int ->
    Platinum_core.Memtxn.t ->
    complete:(delay:int -> int -> unit) ->
    bool;
}

type t = {
  page_words : int;
  submit : now:int -> proc:int -> aspace:int -> Platinum_core.Memtxn.t -> int;
  value : int ref;  (* where [submit] leaves a [Read]'s or [Rmw]'s word *)
  new_aspace : unit -> int;
  new_zone : aspace:int -> name:string -> pages:int -> int;
  alloc : zone:int -> words:int -> page_aligned:bool -> int;
  new_segment : name:string -> pages:int -> int;
  map_segment : aspace:int -> segment:int -> int;
  advise : now:int -> proc:int -> aspace:int -> vaddr:int -> len:int -> advice -> int;
  migrate_cost : now:int -> from_proc:int -> to_proc:int -> int;
  fastpath : Fastpath.ops option;
      (* coalescing fast-path operations (DESIGN.md §4g); [None] = the
         backend only supports the full-suspend path *)
  remote : remote option;
      (* asynchronous remote completion; [None] = every transaction is
         served synchronously by [submit] *)
}
