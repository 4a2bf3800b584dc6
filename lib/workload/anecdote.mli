(** The §4.2 anecdote: a spin lock co-located with a read-mostly variable.

    The first version of the Gaussian-elimination program wrote the matrix
    size to a shared variable at startup; slave threads read it in their
    inner-loop termination test.  A spin-lock variable later added to the
    same page — used as a barrier at the start of the elimination phase —
    froze the page, so every inner-loop read of the matrix size became a
    remote reference: "this dramatically increased the execution time and
    became a bottleneck with five or more processors."  Thawing (the
    defrost daemon) salvaged the old program to within ~2 seconds of the
    fixed one.

    [old_version = true] co-locates the spin lock and the shared variable;
    [false] gives each thread a private copy of the variable (the fix). *)

type params = {
  nprocs : int;
  iters : int;  (** inner-loop iterations reading the variable *)
  old_version : bool;
}

val params :
  ?iters:int ->
  old_version:bool ->
  nprocs:int ->
  unit ->
  params
(** Default: 4000 iterations.  Each iteration reads the variable 4 times
    and computes for 10 µs. *)

val make : params -> Outcome.t * (unit -> unit)
