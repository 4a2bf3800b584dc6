(** Global coherent-memory counters (whole-kernel instrumentation). *)

type t = {
  mutable read_faults : int;
  mutable write_faults : int;
  mutable vm_faults : int;  (** faults that fell through to the VM layer *)
  mutable replications : int;
  mutable migrations : int;
  mutable remote_maps : int;
  mutable freezes : int;
  mutable thaws : int;
  mutable shootdowns : int;
  mutable messages : int;  (** Cmap messages posted *)
  mutable interrupts : int;  (** processors interrupted by shootdowns *)
  mutable deferred_updates : int;
      (** Pmap updates applied without an interrupt (inactive targets) *)
  mutable pages_freed : int;
  mutable zero_fills : int;
  mutable atc_reloads : int;
  mutable fault_ns : int;  (** total time in the Cpage fault handler *)
  mutable copy_ns : int;  (** total block-transfer time *)
}

val create : unit -> t
val pp : Format.formatter -> t -> unit
