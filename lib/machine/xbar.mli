(** Interconnect cost functions.

    These translate a memory request (which processor, which memory module,
    how many words, read or write) into a latency, charging queueing delay
    at the target module(s).  The switch itself is modelled inside the
    per-word remote constants; module occupancy is the serialization point,
    which matches the paper's observation that contention arises "both at
    the memories and in the switch" with memory-module hot spots dominating
    (pivot-row replication, §5.1). *)

type kind =
  | Read
  | Write
  | Rmw  (** an atomic read-modify-write network transaction *)

val uncontended_word_ns : Config.t -> kind -> hop:Config.hop -> int
(** Latency of a single word access with no queueing, routed by the
    interconnect path it takes ({!Config.hop}): local, intra-cluster, or
    cross-fabric.  On a flat machine only [Local]/[Intra] occur and the
    values are the paper's constants unchanged. *)

val ipi_ns : Config.t -> hop:Config.hop -> int
(** Cost of sending one interprocessor interrupt along [hop]:
    [ipi_send_ns], plus [ipi_cross_extra] on a [Cross] hop. *)

val access :
  ?inject:Platinum_sim.Inject.t ->
  Config.t ->
  Memmodule.t array ->
  now:Platinum_sim.Time_ns.t ->
  proc:int ->
  mem_module:int ->
  kind ->
  words:int ->
  int
(** Latency (ns) of [words] back-to-back accesses to one module issued at
    [now], including queueing at the target.  This is the primitive each
    {!Platinum_core.Memtxn} chunk is charged with, and with [words = 1]
    a single word access.

    [inject], when present, is consulted once per call at the module
    serialization point: a transient stall lengthens this request's
    service, a hard outage takes the module down first (the request and
    everything behind it queue until it returns). *)

val block_copy :
  ?inject:Platinum_sim.Inject.t ->
  Config.t ->
  Memmodule.t array ->
  now:Platinum_sim.Time_ns.t ->
  src:int ->
  dst:int ->
  words:int ->
  int
(** Latency of a kernel block transfer of [words] from module [src] to
    module [dst].  Both modules are occupied for the duration (the Butterfly
    block transfer consumes 75% of the local bus bandwidth on both nodes;
    we model full occupancy, §7).  When [src = dst] (a purely local copy)
    only one module is occupied.  Module faults ([inject]) are drawn on the
    source module. *)

val zero_fill :
  ?inject:Platinum_sim.Inject.t ->
  Config.t ->
  Memmodule.t array ->
  now:Platinum_sim.Time_ns.t ->
  dst:int ->
  words:int ->
  int
(** Latency of zero-filling [words] on module [dst]. *)
