(** A bus-based UMA multiprocessor with small write-through caches — the
    Sequent Symmetry (model A) stand-in for the Figure 5 comparison.

    One shared memory behind one shared bus.  Reads that hit in the
    per-processor cache cost [t_hit]; misses queue for the bus and fill a
    line; every write goes onto the bus (write-through) and snoop-
    invalidates the line in other caches, which keeps the caches coherent
    the way the Symmetry's hardware did. *)

type params = {
  cache_words : int;  (** per-processor cache size (Sequent: 2048 = 8 KB) *)
  line_words : int;
  t_hit : int;  (** ns, cache hit *)
  t_mem : int;  (** ns of memory latency beyond bus occupancy *)
  bus_read_service : int;  (** ns of bus occupancy per line fill *)
  bus_write_service : int;  (** ns of bus occupancy per write-through *)
}

val sequent : params
(** 8 KB direct-mapped write-through caches; bus timed so an uncontended
    miss costs ≈ 1.5 µs and a hit 150 ns. *)

type t

val create :
  machine:Platinum_machine.Machine.t -> params:params -> page_words:int -> t

val memsys : t -> Platinum_kernel.Memsys.t

val cache : t -> int -> Platinum_machine.Cache.t
val bus_utilization : t -> horizon:int -> float
