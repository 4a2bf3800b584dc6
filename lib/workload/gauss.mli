(** Gaussian elimination without pivoting (§1, §5.1; Figure 1).

    The paper's flagship workload: the coarse-grain shared-memory program
    LeBlanc found most efficient on the Uniform System, re-expressed in the
    PLATINUM model.  One thread per processor; rows are distributed
    cyclically; in round [k] every thread reads the pivot row (which the
    coherent memory replicates) and eliminates its own rows (which live in
    its local memory after first touch).  An array of event counts
    sequences the rounds — in the paper's runs, the only page the policy
    froze.

    It "simulates" elimination in the paper's sense: integer arithmetic
    (masked to 28 bits) replaces floating point, emphasizing memory
    behaviour over FPU speed.  Self-verifies against a sequential oracle
    computed outside the simulation. *)

type params = {
  n : int;  (** matrix dimension (paper: 800) *)
  nprocs : int;
  seed : int;
  verify : bool;
}

val compute_ns_per_word : int
(** Inner-loop arithmetic cost per element: 3 µs. *)

val params :
  ?n:int ->
  ?seed:int ->
  ?verify:bool ->
  nprocs:int ->
  unit ->
  params
(** Defaults: n = 400 (use 800 to match the paper exactly), seed 42,
    verify on. *)

val make : params -> Outcome.t * (unit -> unit)
(** The outcome cell and the [main] to hand to a runner.  [work_ns] covers
    the elimination phase only (between the start barrier and the last
    thread's finish), as in LeBlanc's measurements. *)

val sequential : params -> int array array
(** The oracle: the same integer elimination, computed outside the
    simulator. *)

(**/**)

(* Shared with the message-passing variant so both compute the same
   matrix. *)

val value_mask : int
val init_elem : params -> int -> int -> int
val eliminate : row:int array -> piv:int array -> off:int -> len:int -> unit
(** One elimination step, eight elements per iteration: [row] minus
    [row.(off) / piv.(off)] (0 for a zero pivot) times [piv], masked to 28
    bits, in place over the [len] elements from [off].  A range past either
    row raises [Invalid_argument] before any element changes. *)
