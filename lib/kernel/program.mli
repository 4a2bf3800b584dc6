(** The program type every memory backend runs: the hosted kernel
    ([Platinum_scale.Parkernel.run]) and Platsys or [Uma_sys]
    ([Platinum_runner.Runner.run_program]).  Besides the rows, each driver
    provides the control region, pages [\[0, data_base_page)], in place. *)

type t = {
  name : string;  (** the run's workload name *)
  image : (int * int array) list;  (** [(r, words)]: row [r]'s words before the run *)
  body : node:int -> row:(int -> int) -> rng:Platinum_sim.Rng.t -> unit;
      (** node [i] runs [body ~node:i ~row ~rng]: [row r] is the address
          of the row homed at node [r], [rng] node [i]'s stream *)
  verify : (int -> int array) -> bool;  (** the oracle over each row's words after the run *)
}

val data_base_page : int

val streams : seed:int64 -> int -> (Platinum_sim.Rng.t * int64) array
(** Node [i]'s stream and then its fault-plane seed, split in node order. *)

(** The built-in programs. *)

val jacobi : n:int -> pw:int -> width:int -> iters:int -> t
(** Ring relaxation for [n] nodes on [pw]-word pages and rows of
    [width <= pw] words: neighbour-row replication, own-row shootdowns.
    Its barrier sits at words [0] and [pw]. *)

val echo : n:int -> ops:int -> rpcs:int array -> t
(** Request/response: client [2p+1] counts [ops] round trips to server
    [2p] in [rpcs.(2p+1)]. *)
