(** Domain-parallel fan-out for sweep grids.

    Every figure and ablation in the evaluation is a grid of fully
    independent simulations — each cell builds its own {!Runner.setup}
    (engine, machine, coherent memory, kernel), so nothing is shared
    between cells and each can run in its own OCaml domain.  [map] is the
    one primitive: run a function over every cell on a pool of domains and
    return the results in input order, so output formatting downstream is
    byte-identical whatever the parallelism.

    Contract for the cell function: it must not print (buffer and emit
    after collection — interleaved writes would otherwise scramble the
    report) and must not touch mutable state outside its own cell.  The
    simulator itself satisfies the second half: all simulation state hangs
    off the per-cell instances, and none of it is global.

    The other parallelism axis, one simulation's event queue split across
    domains, is {!Platinum_sim.Shard}'s, which takes its shard count as an
    argument.  The bench harness labels the two speedups ["grid"]
    (BENCH_sweep.json) and ["shard"] (BENCH_scale.json), so they are never
    conflated. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val set_jobs : int -> unit
(** Set the pool width used when [map] is called without [~jobs].
    [set_jobs 0] restores the default ([default_jobs ()]); negative values
    raise [Invalid_argument].  Set once at startup (the bench harness's
    [-j]); [1] reproduces strictly sequential behavior. *)

val get_jobs : unit -> int
(** The effective pool width: the last [set_jobs] value, or
    [default_jobs ()] when unset/reset. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f cells] applies [f] to every cell on [min jobs (length cells)]
    domains (the calling domain included) and returns results in input
    order.  [~jobs] defaults to {!get_jobs}; [jobs = 1] (or a single cell)
    runs sequentially in the calling domain with no domain spawned —
    exactly [List.map].  If cells raise, the exception of the earliest
    failing cell (in input order) is re-raised after every running cell
    has finished. *)
