(** The kernel's post-mortem memory-management report (§4.2, §5.1).

    "In addition to timing data, the kernel produces a detailed report on
    the behavior of memory management.  For each Cpage this includes the
    number of coherent memory faults, a measure of contention in the Cpage
    fault handler for that page, and whether the Cpage was frozen by the
    replication policy."  This is the tool that diagnosed the frozen
    spin-lock page of the Gaussian-elimination anecdote. *)

type page_row = {
  label : string;
  read_faults : int;
  write_faults : int;
  replications : int;
  migrations : int;
  invalidations : int;
  remote_maps : int;
  fault_wait_ms : float;  (** contention in the Cpage fault handler *)
  frozen_now : bool;
  was_frozen : bool;
}

type t = {
  elapsed : Platinum_sim.Time_ns.t;
  pages : page_row list;  (** sorted by total faults, descending *)
  frozen_pages : int;
  ever_frozen_pages : int;
  module_utilization : float array;
  ipis : int;
}

val of_run :
  Platinum_core.Coherent.t -> elapsed:Platinum_sim.Time_ns.t -> t

val pp : ?top:int -> Format.formatter -> t -> unit
(** Render the report; [top] limits the per-page table (default 20 rows,
    plus every frozen page). *)

val find : t -> label_prefix:string -> page_row list
(** Rows whose label starts with the prefix (e.g. ["matrix["]). *)
