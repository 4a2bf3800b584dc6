type t = {
  nprocs : int;
  cluster_size : int;
  t_cross_read_extra : int;
  t_cross_write_extra : int;
  t_cross_block_extra : int;
  ipi_cross_extra : int;
  page_words : int;
  t_local_word : int;
  t_remote_read_word : int;
  t_remote_write_word : int;
  t_module_service : int;
  t_block_word : int;
  fault_entry_ns : int;
  alloc_map_local_ns : int;
  alloc_map_remote_ns : int;
  map_existing_ns : int;
  zero_fill_word_ns : int;
  shootdown_post_ns : int;
  ipi_send_ns : int;
  page_free_ns : int;
  sync_handler_ns : int;
  atc_reload_ns : int;
  vm_fault_ns : int;
  aspace_activate_ns : int;
  thread_spawn_ns : int;
  thread_migrate_ns : int;
  port_op_ns : int;
  context_switch_ns : int;
  quantum_ns : int;
  local_cache_words : int;
  local_cache_line_words : int;
  t_cache_hit : int;
  t1_freeze_window : int;
  t2_defrost_period : int;
}

(* The fault-path constants are chosen so the composed path lengths land in
   the ranges measured in §4:
     read miss, replicate non-modified page (local metadata)
       = fault_entry + alloc_map_local + 1024 * t_block_word ≈ 1.34 ms
     ... with remote metadata ≈ 1.38 ms
     read miss on a modified page, one processor restricted
       adds shootdown_post + ipi_send + ack wait ≈ 0.04–0.21 ms
     write miss on present+, one invalidation and one page freed
       = fault_entry + shootdown + page_free + map_existing ≈ 0.25–0.45 ms *)
let butterfly_plus ?(nprocs = 16) ?(page_words = 1024) () =
  if nprocs < 1 || nprocs > 62 then
    invalid_arg "Config.butterfly_plus: nprocs must be in [1, 62]";
  {
    nprocs;
    (* The Butterfly Plus is one flat fabric: every node is one switch hop
       from every other, so the whole machine is a single cluster and the
       cross-fabric extras never apply. *)
    cluster_size = nprocs;
    t_cross_read_extra = 0;
    t_cross_write_extra = 0;
    t_cross_block_extra = 0;
    ipi_cross_extra = 0;
    page_words;
    t_local_word = 320;
    t_remote_read_word = 5_000;
    t_remote_write_word = 4_000;
    t_module_service = 320;
    t_block_word = 1_085;
    fault_entry_ns = 150_000;
    alloc_map_local_ns = 80_000;
    alloc_map_remote_ns = 120_000;
    map_existing_ns = 50_000;
    zero_fill_word_ns = 110;
    shootdown_post_ns = 10_000;
    ipi_send_ns = 7_000;
    page_free_ns = 10_000;
    sync_handler_ns = 25_000;
    atc_reload_ns = 2_000;
    vm_fault_ns = 80_000;
    aspace_activate_ns = 20_000;
    thread_spawn_ns = 200_000;
    thread_migrate_ns = 150_000;
    port_op_ns = 50_000;
    context_switch_ns = 100_000;
    quantum_ns = 20_000_000;
    local_cache_words = 0;
    local_cache_line_words = 4;
    t_cache_hit = 100;
    t1_freeze_window = 10_000_000;
    t2_defrost_period = 1_000_000_000;
  }

(* A machine bigger than the paper's: [nodes] single-processor nodes
   grouped into clusters of [cluster_size] on a two-level interconnect.
   Within a cluster the Butterfly constants apply unchanged; crossing the
   fabric between clusters adds a fixed per-word (and per-IPI) surcharge,
   the shape modern multi-socket NUMA fabrics have (intra-socket vs
   cross-fabric hops — Mitosis/numaPTE-scale machines, PAPERS.md).  The
   constants keep T_l << T_r < T_r+cross, so every placement argument in
   the paper still has teeth at 4096 nodes. *)
let max_nodes = 4096

let hierarchical ?(cluster_size = 16) ?(page_words = 1024) ~nodes () =
  if nodes < 1 || nodes > max_nodes then
    invalid_arg
      (Printf.sprintf "Config.hierarchical: nodes must be in [1, %d]" max_nodes);
  if cluster_size < 1 then invalid_arg "Config.hierarchical: cluster_size must be >= 1";
  let base = butterfly_plus ~nprocs:1 ~page_words () in
  {
    base with
    nprocs = nodes;
    cluster_size;
    (* One extra fabric hop ~ 60% of a remote read on the Butterfly's
       switch; writes pipeline slightly better; block transfers amortize
       the hop over the burst. *)
    t_cross_read_extra = 3_000;
    t_cross_write_extra = 2_400;
    t_cross_block_extra = 400;
    ipi_cross_extra = 5_000;
  }

type hop =
  | Local
  | Intra
  | Cross

let cluster_of t node =
  if t.cluster_size >= t.nprocs then 0 else node / t.cluster_size

let clusters t =
  if t.cluster_size >= t.nprocs then 1
  else (t.nprocs + t.cluster_size - 1) / t.cluster_size

let hop t ~src ~dst =
  if src = dst then Local else if cluster_of t src = cluster_of t dst then Intra else Cross

(* The conservative-synchronization lookahead: no cross-node cause can
   produce a cross-node effect sooner than the cheapest cross-node
   latency, so a time window of this width is safe to advance without
   hearing from other nodes.  The cross-fabric extras only ever add
   latency, so the intra-cluster minimum is a sound global bound. *)
let lookahead_ns t =
  min
    (min t.t_remote_read_word t.t_remote_write_word)
    (min t.t_block_word t.ipi_send_ns)

let page_bytes t = t.page_words * 4

let with_policy_params ?t1_freeze_window ?t2_defrost_period t =
  let t1 = Option.value t1_freeze_window ~default:t.t1_freeze_window in
  let t2 = Option.value t2_defrost_period ~default:t.t2_defrost_period in
  { t with t1_freeze_window = t1; t2_defrost_period = t2 }

let with_local_caches ?(words = 2_048) ?(line_words = 4) t =
  { t with local_cache_words = words; local_cache_line_words = line_words; t_cache_hit = 100 }

let pp fmt t =
  if clusters t > 1 then
    Format.fprintf fmt "@[<v>topology: %d clusters of %d (+%dns/%dns cross-fabric r/w)@,@]"
      (clusters t) t.cluster_size t.t_cross_read_extra t.t_cross_write_extra;
  Format.fprintf fmt
    "@[<v>machine: %d processors, %d-word (%d-byte) pages@,\
     T_l=%dns T_r=%dns/%dns (r/w) T_b=%dns/word@,\
     t1=%a t2=%a@]"
    t.nprocs t.page_words (page_bytes t) t.t_local_word t.t_remote_read_word
    t.t_remote_write_word t.t_block_word Platinum_sim.Time_ns.pp
    t.t1_freeze_window Platinum_sim.Time_ns.pp t.t2_defrost_period
