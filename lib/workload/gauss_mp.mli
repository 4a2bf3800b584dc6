(** Message-passing Gaussian elimination (the SMP baseline of §5.1).

    The same computation as {!Gauss}, structured the way LeBlanc's SMP
    library programs were: each worker keeps its rows in memory it
    allocated itself (local after first touch) and the pivot row is
    broadcast explicitly through per-worker ports.  No data page is ever
    shared, so the coherency protocol sees almost no traffic; the cost is
    explicit communication code and one copy per consumer — the 15.3× of
    Figure 1's best curve. *)

type params = {
  n : int;
  nprocs : int;
  seed : int;
  verify : bool;
}

val params :
  ?n:int ->
  ?seed:int ->
  ?verify:bool ->
  nprocs:int ->
  unit ->
  params

val make : params -> Outcome.t * (unit -> unit)
(** Self-verifies against the same sequential oracle as {!Gauss} (the two
    implementations compute identical matrices, at the same
    {!Gauss.compute_ns_per_word}). *)
