type thread_id = int
type port_id = int
type zone_id = int

type _ request =
  | Yield : unit request
  | Spawn : (unit -> unit) * int option * int option -> thread_id request
  | Join : thread_id -> unit request
  | Migrate : int -> unit request
  | Self : thread_id request
  | My_proc : int request
  | Now : int request
  | New_port : port_id request
  | Port_send : port_id * int array -> unit request
  | Port_recv : port_id -> int array request
  | New_zone : string * int -> zone_id request
  | Alloc : zone_id * int * bool -> int request
  | Alloc_pages : zone_id * int -> int request
  | Page_words : int request
  | Advise : int * int * Memsys.advice -> unit request
  | My_aspace : int request
  | New_aspace : int request
  | New_segment : string * int -> int request
  | Map_segment : int -> int request
  | Inject_handle : Platinum_sim.Inject.t option request

type _ Effect.t +=
  | Access_txn : Platinum_core.Memtxn.t -> int Effect.t
  | Compute : int -> unit Effect.t
  | Sleep : int -> unit Effect.t
  | Syscall : 'a request -> 'a Effect.t
