type kind =
  | Read
  | Write
  | Rmw

(* Routing by topology: a Local reference never leaves the node, an Intra
   hop is the paper's one-switch-traversal T_r, and a Cross hop pays the
   extra fabric traversal on top.  On a flat machine (the Butterfly:
   [cluster_size >= nprocs]) Cross never occurs, so every published
   constant is reproduced bit-for-bit. *)
let[@inline] uncontended_word_ns (c : Config.t) kind ~(hop : Config.hop) =
  match hop with
  | Config.Local -> (
    match kind with
    | Read | Write -> c.t_local_word
    | Rmw -> 2 * c.t_local_word)
  | Config.Intra -> (
    match kind with
    | Read -> c.t_remote_read_word
    | Write -> c.t_remote_write_word
    | Rmw -> c.t_remote_read_word + c.t_module_service)
  | Config.Cross -> (
    match kind with
    | Read -> c.t_remote_read_word + c.t_cross_read_extra
    | Write -> c.t_remote_write_word + c.t_cross_write_extra
    | Rmw -> c.t_remote_read_word + c.t_cross_read_extra + c.t_module_service)

(* An interprocessor interrupt crossing the fabric pays the extra hop; on
   a flat machine the extra is zero and this is the paper's per-target
   send cost. *)
let ipi_ns (c : Config.t) ~(hop : Config.hop) =
  match hop with
  | Config.Cross -> c.ipi_send_ns + c.ipi_cross_extra
  | Config.Local | Config.Intra -> c.ipi_send_ns

(* Fault injection lives at the module serialization point: a transient
   stall lengthens this one request's service; a hard outage pushes the
   module's busy horizon out, so this request — and everything arriving
   behind it — queues until the module comes back.  Returns the extra
   service to charge (stall), having applied any outage to the module. *)
let[@inline] module_fault inject m ~now =
  match inject with
  | None -> 0
  | Some inj -> (
    match Platinum_sim.Inject.module_fault inj with
    | `None -> 0
    | `Stall n -> n
    | `Outage n ->
      Memmodule.reserve_until m (Int.max now (Memmodule.busy_until m) + n);
      0)

(* The one interconnect primitive behind every memory transaction chunk:
   [words] back-to-back accesses from [proc] to one module.  The request
   traverses the switch (folded into the uncontended constants), queues at
   the module, is served for the whole run, and returns.
   Latency = queueing delay + words * uncontended time.  For [words = 1]
   this is a plain word access; issuing a run as one acquisition is
   cost-identical to [words] sequential acquisitions, because the module is
   the serialization point either way. *)
let access ?inject (c : Config.t) modules ~now ~proc ~mem_module kind ~words =
  if words < 0 then invalid_arg "Xbar.access";
  if words = 0 then 0
  else begin
    let hop = Config.hop c ~src:proc ~dst:mem_module in
    let m = modules.(mem_module) in
    let per_word_service =
      match hop with Config.Local -> c.t_local_word | _ -> c.t_module_service
    in
    let base = words * uncontended_word_ns c kind ~hop in
    let extra = module_fault inject m ~now in
    let start =
      Memmodule.acquire m ~arrival:now ~service:((words * per_word_service) + extra)
    in
    (start - now) + base + extra
  end

let block_copy ?inject (c : Config.t) modules ~now ~src ~dst ~words =
  if words < 0 then invalid_arg "Xbar.block_copy";
  if words = 0 then 0
  else begin
    let per_word =
      c.t_block_word
      + (match Config.hop c ~src ~dst with
        | Config.Cross -> c.t_cross_block_extra
        | Config.Local | Config.Intra -> 0)
    in
    let duration = words * per_word in
    let msrc = modules.(src) in
    let mdst = modules.(dst) in
    let extra = module_fault inject msrc ~now in
    let duration = duration + extra in
    if src = dst then begin
      let start = Memmodule.acquire msrc ~arrival:now ~service:duration in
      (start - now) + duration
    end
    else begin
      (* The transfer starts once both modules are free and holds both. *)
      let arrival = Int.max now (Int.max (Memmodule.busy_until msrc) (Memmodule.busy_until mdst)) in
      let start = Memmodule.acquire msrc ~arrival ~service:duration in
      Memmodule.reserve_until mdst (start + duration);
      (start - now) + duration
    end
  end

let zero_fill ?inject (c : Config.t) modules ~now ~dst ~words =
  if words < 0 then invalid_arg "Xbar.zero_fill";
  if words = 0 then 0
  else begin
    let duration = words * c.zero_fill_word_ns in
    let m = modules.(dst) in
    let extra = module_fault inject m ~now in
    let duration = duration + extra in
    let start = Memmodule.acquire m ~arrival:now ~service:duration in
    (start - now) + duration
  end
