(** Machine and kernel-cost parameters.

    The [butterfly_plus] preset encodes the constants published in §4 of the
    paper: a 16-processor BBN Butterfly Plus (16.67 MHz MC68020 + MC68851,
    4 MB per node), T_l ≈ 320 ns, T_r ≈ 5000 ns per 32-bit word read,
    T_b ≈ 1.1 µs per word block-transferred, 4 KB pages, and the measured
    fault-path overheads (0.23–0.48 ms fixed, ≈7 µs per IPI, ≈10 µs per page
    free). *)

type t = {
  nprocs : int;  (** processor nodes; one memory module per node *)
  (* --- two-level interconnect topology --- *)
  cluster_size : int;
      (** nodes per cluster; [>= nprocs] (the Butterfly) = one flat fabric *)
  t_cross_read_extra : int;  (** ns added per word read crossing clusters *)
  t_cross_write_extra : int;  (** ns added per word write crossing clusters *)
  t_cross_block_extra : int;  (** ns added per block-transfer word crossing clusters *)
  ipi_cross_extra : int;  (** ns added per IPI crossing clusters *)
  page_words : int;  (** words per page (words are 32-bit); 1024 = 4 KB *)
  (* --- word-access timing --- *)
  t_local_word : int;  (** ns per local 32-bit reference (T_l) *)
  t_remote_read_word : int;  (** ns per remote read (T_r) *)
  t_remote_write_word : int;  (** ns per remote write (writes are faster) *)
  t_module_service : int;  (** memory-module occupancy per word op, ns *)
  (* --- block transfer --- *)
  t_block_word : int;  (** ns per word of kernel block transfer (T_b) *)
  (* --- kernel fault-path costs --- *)
  fault_entry_ns : int;  (** trap + Cmap lookup *)
  alloc_map_local_ns : int;  (** allocate + map a frame, local Cpage metadata *)
  alloc_map_remote_ns : int;  (** same, metadata on a remote module *)
  map_existing_ns : int;  (** map an existing frame (no allocation) *)
  zero_fill_word_ns : int;  (** ns per word when zero-filling a new page *)
  (* --- shootdown --- *)
  shootdown_post_ns : int;  (** post a Cmap message *)
  ipi_send_ns : int;  (** initiator cost per interrupted target *)
  page_free_ns : int;  (** free one physical page (1 remote read + write) *)
  sync_handler_ns : int;  (** target-side Cmap synchronization handler *)
  (* --- MMU / kernel misc --- *)
  atc_reload_ns : int;  (** ATC miss satisfied from the Pmap *)
  vm_fault_ns : int;  (** machine-independent VM fault (create/bind a Cpage) *)
  aspace_activate_ns : int;  (** activate an address space on a processor *)
  thread_spawn_ns : int;
  thread_migrate_ns : int;  (** beyond the kernel-stack block copy *)
  port_op_ns : int;  (** fixed cost of a port send/receive *)
  context_switch_ns : int;
  quantum_ns : int;  (** scheduling quantum *)
  (* --- §7 extension: local data caches without hardware coherency --- *)
  local_cache_words : int;
      (** per-processor cache size in words; 0 (the Butterfly Plus) = none *)
  local_cache_line_words : int;
  t_cache_hit : int;  (** ns for a local-cache hit *)
  (* --- replication-policy parameters (§4.2) --- *)
  t1_freeze_window : int;  (** freeze pages invalidated within t1; 10 ms *)
  t2_defrost_period : int;  (** defrost-daemon period; 1 s *)
}

val butterfly_plus : ?nprocs:int -> ?page_words:int -> unit -> t
(** The paper's machine.  [nprocs] defaults to 16, [page_words] to 1024
    (4 KB pages). *)

val hierarchical : ?cluster_size:int -> ?page_words:int -> nodes:int -> unit -> t
(** A machine far past the Butterfly's 16 nodes: [nodes] single-processor
    nodes in clusters of [cluster_size] (default 16) on a two-level
    fabric.  Intra-cluster costs are the Butterfly constants unchanged;
    crossing clusters adds the [t_cross_*]/[ipi_cross_extra] surcharges.
    [nodes] may go to 4096. *)

type hop =
  | Local  (** processor referencing its own module *)
  | Intra  (** remote, same cluster: the paper's T_r *)
  | Cross  (** remote, across the fabric: T_r plus the cross extras *)

val cluster_of : t -> int -> int
val clusters : t -> int

val hop : t -> src:int -> dst:int -> hop
(** Classify the interconnect path between two nodes. *)

val lookahead_ns : t -> int
(** The minimum cross-node latency of this machine — the natural
    conservative-synchronization horizon for a sharded simulation: no
    event at one node can affect another node sooner than this. *)

val with_policy_params :
  ?t1_freeze_window:int -> ?t2_defrost_period:int -> t -> t
(** Override the replication-policy timing parameters (for the t1/t2
    ablations). *)

val with_local_caches : ?words:int -> ?line_words:int -> t -> t
(** Enable the §7 local-cache extension (defaults: 8 KB direct-mapped,
    4-word lines) with 100 ns hits.  The caches have no hardware coherency;
    the coherent memory system keeps them coherent in software, and only
    cachable pages (not Modified-and-remotely-mapped) use them. *)

val pp : Format.formatter -> t -> unit
