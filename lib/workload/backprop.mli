(** Recurrent-backpropagation neural-network simulator (§5.3; Figure 6).

    The paper's stress case: written by a newcomer, it parallelizes unit
    updates with a simple for-loop split and relies only on the atomicity
    of memory operations for synchronization — very fine-grain sharing of
    very little data.  The coherent memory system "quickly gives up": the
    shared activation and weight pages are invalidated at fine grain,
    freeze, and stay frozen; speedup remains linear (remote references
    don't contend much at this scale) but each added processor contributes
    only about half a local-memory processor.

    The simulated network is a three-layer encoder (paper: 40 units, 16
    input/output pairs) in fixed-point arithmetic.  Because threads share
    activations without synchronization, the result is
    schedule-dependent (deterministic for a given configuration, as the
    whole simulator is); verification checks boundedness and that training
    moved the weights. *)

type params = {
  units : int;
  patterns : int;
  epochs : int;
  settle_steps : int;  (** forward relaxation steps per pattern *)
  nprocs : int;
  seed : int;
  verify : bool;
}

val params :
  ?units:int ->
  ?patterns:int ->
  ?epochs:int ->
  ?settle_steps:int ->
  ?seed:int ->
  ?verify:bool ->
  nprocs:int ->
  unit ->
  params
(** Defaults: 40 units, 16 patterns, 5 epochs, 2 settle steps.  Each
    connection costs 8.7 µs of arithmetic.  The inner loops are block and
    strided transactions. *)

val make : params -> Outcome.t * (unit -> unit)
