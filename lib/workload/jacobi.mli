(** Jacobi iteration on a 2-D grid — a nearest-neighbour sharing pattern.

    A classic Butterfly-era kernel (the paper's §1 promises "a library of
    applications ... with a variety of programming styles that use
    different memory access patterns"; grid relaxation is the canonical
    producer-consumer-at-boundaries pattern).  The grid is row-block
    partitioned; each iteration every thread recomputes its rows from the
    previous iteration's values, so it reads its neighbours' boundary
    rows.  Under PLATINUM those boundary pages are replicated each
    iteration and invalidated when their owner rewrites them — pages that
    live right at the freeze policy's decision boundary: with iterations
    shorter than t1 they freeze (remote boundary reads); longer, they
    keep being replicated.  Integer arithmetic; deterministic (barrier
    per iteration); self-verifies against a sequential oracle. *)

type params = {
  n : int;  (** grid side; the grid is n x n *)
  iters : int;
  nprocs : int;
  seed : int;
  verify : bool;
}

val params :
  ?n:int ->
  ?iters:int ->
  ?seed:int ->
  ?verify:bool ->
  nprocs:int ->
  unit ->
  params
(** Defaults: 128x128 grid, 12 iterations.  Each point costs 2 µs of
    compute.  A worker reads a row's three stencil rows as one 3n-word
    transaction. *)

val make : params -> Outcome.t * (unit -> unit)

val sequential : params -> int array array
(** The oracle. *)
