module Machine = Platinum_machine.Machine
module Config = Platinum_machine.Config
module Xbar = Platinum_machine.Xbar
module Procset = Platinum_machine.Procset
module Frame = Platinum_phys.Frame
module Phys_mem = Platinum_phys.Phys_mem
module Engine = Platinum_sim.Engine

(* Reusable per-caller result slot for the allocation-free word paths:
   [read_word_s] and friends write the latency here and return the bare
   value, so a steady-state hit builds no tuple, option or closure.  Not
   reentrant — one scratch per access stream. *)
type scratch = { mutable s_latency : int }

let make_scratch () = { s_latency = 0 }

type t = {
  machine : Machine.t;
  phys : Phys_mem.t;
  page_shift : int;  (* {!Phys_mem.page_shift} of the page size *)
  counters : Counters.t;
  policy : Policy.t;
  atcs : Atc.t array;  (* each holds its processor's active space *)
  cmaps : (int, Cmap.t) Hashtbl.t;
  cpages : (int, Cpage.t) Hashtbl.t;
  mutable next_aspace : int;
  mutable next_cpage : int;
  mappings : (int, (Cmap.t * int) list ref) Hashtbl.t;  (* cpage id -> bindings *)
  mutable frozen_list : Cpage.t list;
  mutable probe : Probe.t option;
  mutable freeze_hook : (now:int -> Cpage.t -> unit) option;  (* defrost daemon's *)
  mutable monitor : Check.monitor option;  (* the runtime invariant monitor *)
  scratch : scratch;  (* submit's own latency slot *)
  cursor : Memtxn.chunk;  (* submit's chunk cursor for block transactions *)
  fp_value : int ref;
      (* the word of the last fp_read/fp_rmw hit or [submit]ted Read/Rmw —
         a shared cell ({!fp_value_cell}) so callers read it without a call *)
}

let machine t = t.machine
let config t = Machine.config t.machine
let phys t = t.phys
let counters t = t.counters
let policy t = t.policy
let page_words t = Phys_mem.page_words t.phys
let vpage_of t vaddr = Phys_mem.vpage ~shift:t.page_shift ~page_words:(page_words t) vaddr
let offset_of t vaddr = Phys_mem.offset ~shift:t.page_shift ~page_words:(page_words t) vaddr

(* [Hashtbl.find] + exception match rather than [find_opt]: the cachable
   test on the read hit path lands here, and [find_opt] would allocate a
   [Some] per access. *)
let mappings_of t (page : Cpage.t) =
  match Hashtbl.find t.mappings page.Cpage.id with
  | r -> !r
  | exception Not_found -> []

(* --- the machine-wide invariant sweep (structured) --- *)

let check_faults t =
  let found = ref None in
  let keep f = if !found = None then found := Some f in
  let fail ?cpage ~inv ~cite fmt =
    Printf.ksprintf (fun detail -> keep { Check.inv; cite; detail; cpage }) fmt
  in
  let copies = ref 0 in
  Hashtbl.iter
    (fun _ (page : Cpage.t) ->
      copies := !copies + Cpage.ncopies page;
      (match Cpage.check_faults page with Ok () -> () | Error f -> keep f);
      (* Directory frames must be owned by this page. *)
      Cpage.iter_copies
        (fun f ->
          match Frame.owner f with
          | Some o when o = page.Cpage.id -> ()
          | _ ->
            fail ~cpage:page.Cpage.id ~inv:"directory-ownership" ~cite:"§2.3"
              "directory frame on module %d not owned by this page" (Frame.mem_module f))
        page;
      if page.Cpage.frozen && not (List.memq page t.frozen_list) then
        fail ~cpage:page.Cpage.id ~inv:"frozen-list-agreement" ~cite:"§4.2"
          "frozen but not on the frozen list")
    t.cpages;
  (* Every frame handed out is a copy in some directory: none leaks. *)
  let allocated = Phys_mem.total_frames t.phys - Phys_mem.total_free t.phys in
  if allocated <> !copies then
    fail ~inv:"frame-accounting" ~cite:"§2.3" "%d frames allocated, %d in directories" allocated
      !copies;
  List.iter
    (fun (page : Cpage.t) ->
      if not page.Cpage.frozen then
        fail ~cpage:page.Cpage.id ~inv:"frozen-list-agreement" ~cite:"§4.2"
          "thawed page still on the frozen list")
    t.frozen_list;
  Hashtbl.iter (fun _ cm -> match Cmap.check_faults cm with Some f -> keep f | None -> ())
    t.cmaps;
  !found

let check_invariants t =
  match check_faults t with None -> Ok () | Some f -> Error (Check.render f)

(* Sanitizer plumbing.  [emit] funnels every protocol event to the user
   probe and, when the monitor is armed, into its replayable trace;
   [checkpoint] re-verifies the whole machine.  Both are a single [match]
   when the monitor is off, and no call site is on the ATC-hit hot path. *)
let emit t ~now ev =
  (match t.monitor with Some m -> Check.note m ~now (Check.Event ev) | None -> ());
  match t.probe with Some p -> p ~now ev | None -> ()

let checkpoint t ~now =
  match t.monitor with
  | None -> ()
  | Some m -> (
    match check_faults t with None -> () | Some f -> Check.raise_violation m ~now f)

(* A frozen page must have exactly one backing copy (§4.2: "there can only
   be one physical page backing a frozen Cpage").  A replica can slip in
   between an invalidation and the next miss when fault-handling latency
   crosses the t1 boundary mid-operation; in that case the page is being
   read-shared successfully and freezing is declined — the caller's remote
   mapping is still installed and harmless. *)
let freeze_page t ~now (page : Cpage.t) =
  if (not page.Cpage.frozen) && Cpage.ncopies page = 1 then begin
    page.Cpage.frozen <- true;
    page.Cpage.stats.Cpage.freezes <- page.Cpage.stats.Cpage.freezes + 1;
    page.Cpage.stats.Cpage.was_frozen <- true;
    t.counters.Counters.freezes <- t.counters.Counters.freezes + 1;
    t.frozen_list <- page :: t.frozen_list;
    page.Cpage.frozen_at <- now;
    emit t ~now (Probe.Frozen { cpage = page.Cpage.id });
    (match t.freeze_hook with
    | None -> ()
    | Some f -> f ~now page);
    checkpoint t ~now
  end

(* Drop the translations a shootdown leaves in [ce]'s reference mask (the
   initiator's own slot). *)
let drop_translations cm ~vpage (ce : Cmap.centry) =
  Procset.iter (fun p -> Pmap.remove (Cmap.pmap cm ~proc:p) ~vpage) ce.Cmap.refmask;
  ce.Cmap.refmask <- Procset.empty

let thaw_page t ~now ~by_daemon (page : Cpage.t) =
  if page.Cpage.frozen then begin
    page.Cpage.frozen <- false;
    page.Cpage.stats.Cpage.thaws <- page.Cpage.stats.Cpage.thaws + 1;
    t.counters.Counters.thaws <- t.counters.Counters.thaws + 1;
    t.frozen_list <- List.filter (fun p -> p != page) t.frozen_list;
    (* Invalidate every translation so the next access faults and may
       replicate or migrate the page.  The daemon's own work is charged to
       the page's home processor.  This is not a *protocol* invalidation:
       it does not update [last_protocol_inval]. *)
    let daemon_proc = page.Cpage.home in
    let r =
      Shootdown.run ?monitor:t.monitor ~machine:t.machine ~counters:t.counters ~atcs:t.atcs
        ~now ~initiator:daemon_proc ~mappings:(mappings_of t page)
        ~directive:Cmap.Invalidate ~spare:None ()
    in
    (* The daemon also drops its initiator-side bookkeeping onto its own
       processor. *)
    Machine.add_penalty t.machine ~proc:daemon_proc r.Shootdown.latency;
    List.iter
      (fun (cm, vpage) ->
        match Cmap.find cm ~vpage with None -> () | Some ce -> drop_translations cm ~vpage ce)
      (mappings_of t page);
    page.Cpage.write_mapped <- false;
    page.Cpage.last_thaw_at <- now;
    emit t ~now (Probe.Thawed { cpage = page.Cpage.id; by_daemon });
    checkpoint t ~now
  end

let thaw_all t ~now = List.iter (fun page -> thaw_page t ~now ~by_daemon:true page) t.frozen_list

let create machine ~engine:_ ~policy ?(frames_per_module = 1024) () =
  let config = Machine.config machine in
  let nprocs = config.Config.nprocs in
  {
    machine;
    phys =
      Phys_mem.create ~modules:nprocs ~frames_per_module
        ~page_words:config.Config.page_words;
    page_shift = Phys_mem.page_shift config.Config.page_words;
    counters = Counters.create ();
    policy;
    atcs = Array.init nprocs (fun _ -> Atc.create ());
    cmaps = Hashtbl.create 8;
    cpages = Hashtbl.create 1024;
    next_aspace = 0;
    next_cpage = 0;
    mappings = Hashtbl.create 1024;
    frozen_list = [];
    probe = None;
    freeze_hook = None;
    (* PLATINUM_CHECK=1 arms the coherence sanitizer at construction. *)
    monitor = (if Check.env_enabled () then Some (Check.create_monitor ()) else None);
    scratch = make_scratch ();
    cursor = Memtxn.make_chunk ();
    fp_value = ref 0;
  }

let new_aspace t =
  let id = t.next_aspace in
  t.next_aspace <- id + 1;
  let cm = Cmap.create ~aspace:id ~nprocs:(Machine.nprocs t.machine) in
  Hashtbl.replace t.cmaps id cm;
  cm

let cmap t ~aspace =
  match Hashtbl.find_opt t.cmaps aspace with
  | Some cm -> cm
  | None -> invalid_arg (Printf.sprintf "Coherent.cmap: unknown address space %d" aspace)

let new_cpage t ?home ?label () =
  let id = t.next_cpage in
  t.next_cpage <- id + 1;
  (* Kernel metadata is decentralized: home modules are spread round-robin. *)
  let home = match home with Some h -> h | None -> id mod Machine.nprocs t.machine in
  let page = Cpage.create ~id ~home ?label () in
  Hashtbl.replace t.cpages id page;
  page

let bind t cm ~vpage page rights =
  ignore (Cmap.bind cm ~vpage page rights);
  let r =
    match Hashtbl.find_opt t.mappings page.Cpage.id with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.mappings page.Cpage.id r;
      r
  in
  r := (cm, vpage) :: !r;
  checkpoint t ~now:0

let activate t ~now:_ ~proc ~aspace =
  if Atc.is_active t.atcs.(proc) ~aspace then 0
  else begin
    (* Resolve the new space first: an unknown [aspace] must raise before
       any of the processor's activation state changes. *)
    ignore (cmap t ~aspace);
    ignore (Atc.activate t.atcs.(proc) ~aspace);
    (* The §7 caches are virtually indexed: flush on space switch. *)
    (match Machine.cache t.machine ~proc with
    | Some c -> Platinum_machine.Cache.flush c
    | None -> ());
    (config t).Config.aspace_activate_ns
  end

(* --- the fault executor ---

   [exec] carries out a {!Fault.plan} or {!Fault.collapse} step by step,
   synchronously: each step starts at the fault's [now] plus the latency
   so far, which accumulates in [sc], and charges, counts and emits where
   the protocol does, so the plan's order is the event order.  [proc]
   initiates the shootdowns and receives the mapping; [target] is the
   module the page is brought to (the faulting processor's own, for a
   fault); [fresh] is the frame the plan allocated. *)

let charge (sc : scratch) ns = sc.s_latency <- sc.s_latency + ns

let kill_cached_lines t ~vpage =
  let pw = page_words t in
  Machine.invalidate_cached_range_all t.machine ~addr:(vpage * pw) ~words:pw

(* Prefer the copy on the page's home module for remote mappings, so frozen
   pages have a stable placement. *)
let choose_copy (page : Cpage.t) =
  match Cpage.local_copy page page.Cpage.home with Some f -> f | None -> Cpage.any_copy page

let install t ~proc ~cm ~vpage (ce : Cmap.centry) frame ~write_ok =
  let entry = Pmap.install (Cmap.pmap cm ~proc) ~vpage ~frame ~cpage:ce.Cmap.cpage ~write_ok in
  ce.Cmap.refmask <- Procset.add proc ce.Cmap.refmask;
  let atc = t.atcs.(proc) in
  if Atc.is_active atc ~aspace:(Cmap.aspace cm) then Atc.load atc entry;
  if write_ok then ce.Cmap.cpage.Cpage.write_mapped <- true

let rec free_copies t page ~except lat = function
  | [] -> lat
  | f :: rest when f == except -> free_copies t page ~except lat rest
  | f :: rest ->
    Cpage.remove_copy page f;
    Phys_mem.free t.phys f;
    t.counters.Counters.pages_freed <- t.counters.Counters.pages_freed + 1;
    free_copies t page ~except (lat + (config t).Config.page_free_ns) rest

(* A frame on [prefer], else on the emptiest module that holds no copy of
   [page]; [None] when every such module is full. *)
let alloc_near t ~prefer (page : Cpage.t) =
  let cpage = page.Cpage.id in
  match Phys_mem.alloc t.phys ~mem_module:prefer ~cpage with
  | Some _ as r -> r
  | None ->
    let best = ref (-1) and best_free = ref 0 in
    for m = 0 to Phys_mem.modules t.phys - 1 do
      let free = Phys_mem.free_count t.phys ~mem_module:m in
      if m <> prefer && (not (Cpage.has_copy_on page m)) && free > !best_free then begin
        best := m;
        best_free := free
      end
    done;
    if !best < 0 then None else Phys_mem.alloc t.phys ~mem_module:!best ~cpage

(* Allocation/mapping overhead depends on whether the Cpage metadata lives
   in the faulting processor's module — the paper's 0.23 ms vs 0.27 ms. *)
let alloc t sc ~proc ~target (page : Cpage.t) (place : Fault.place) =
  let cfg = config t in
  let frame =
    match place with
    | Fault.Exactly -> Phys_mem.alloc t.phys ~mem_module:target ~cpage:page.Cpage.id
    | First_touch | Near ->
      (* First-touch placement is local unless the policy scatters data
         round-robin across modules (the Uniform System baseline). *)
      let prefer =
        if place = First_touch && Policy.scatter_placement t.policy then
          page.Cpage.id mod cfg.Config.nprocs
        else target
      in
      alloc_near t ~prefer page
  in
  (match frame with
  | None -> ()
  | Some _ ->
    charge sc
      (if place <> Fault.Exactly && page.Cpage.home = proc then cfg.Config.alloc_map_local_ns
       else cfg.Config.alloc_map_remote_ns));
  frame

(* A fault's transfers count as copy time. *)
let transfer t sc ~now ~fault ~src ~dst ~words =
  let clat =
    Xbar.block_copy ?inject:(Machine.inject t.machine) (config t) (Machine.modules t.machine)
      ~now:(now + sc.s_latency) ~src:(Frame.mem_module src) ~dst:(Frame.mem_module dst) ~words
  in
  charge sc clat;
  if fault then t.counters.Counters.copy_ns <- t.counters.Counters.copy_ns + clat;
  clat

let complete_copy t sc ~now ~fault (page : Cpage.t) ~src ~dst =
  let words = page_words t in
  let clat = transfer t sc ~now ~fault ~src ~dst ~words in
  Frame.blit_from ~src ~dst;
  (* Queueing beyond the raw transfer is the paper's per-page "contention
     in the Cpage fault handler" measure. *)
  let st = page.Cpage.stats in
  if fault then
    st.Cpage.fault_wait_ns <-
      st.Cpage.fault_wait_ns + (clat - (words * (config t).Config.t_block_word))

(* Under fault injection each abort still charges the partial occupancy
   it burned; [false] once the retries run out. *)
let rec copy_attempts t sc ~now page ~src ~dst inj ~attempt ~extra =
  match Platinum_sim.Inject.block_abort inj ~words:(page_words t) with
  | None ->
    complete_copy t sc ~now ~fault:true page ~src ~dst;
    if extra > 0 then Platinum_sim.Inject.note_recovery inj extra;
    true
  | Some w ->
    let extra = extra + transfer t sc ~now ~fault:true ~src ~dst ~words:w in
    if attempt >= Platinum_sim.Inject.max_copy_retries then begin
      Platinum_sim.Inject.note_recovery inj extra;
      false
    end
    else begin
      Platinum_sim.Inject.note_copy_retry inj;
      copy_attempts t sc ~now page ~src ~dst inj ~attempt:(attempt + 1) ~extra
    end

let copy t sc ~now ~abortable (page : Cpage.t) ~dst =
  let src = Cpage.any_copy page in
  match Machine.inject t.machine with
  | Some inj when abortable -> copy_attempts t sc ~now page ~src ~dst inj ~attempt:0 ~extra:0
  | Some _ | None ->
    complete_copy t sc ~now ~fault:abortable page ~src ~dst;
    true

(* The steps that cannot branch. *)
let step t sc ~now ~proc ~target ~cm ~vpage ~(ce : Cmap.centry) ~write ~fresh (s : Fault.step) =
  let page = ce.Cmap.cpage and cfg = config t in
  let st = page.Cpage.stats and cpage = page.Cpage.id in
  match s with
  | Fault.Shootdown { directive; spare; protocol } -> (
    let r =
      Shootdown.run ?monitor:t.monitor ~machine:t.machine ~counters:t.counters ~atcs:t.atcs
        ~now:(now + sc.s_latency) ~initiator:proc ~mappings:(mappings_of t page) ~directive
        ~spare:(if spare then Some (cm, vpage) else None)
        ()
    in
    charge sc r.Shootdown.latency;
    let interrupted = r.Shootdown.interrupted in
    match directive with
    | _ when not protocol -> ()
    | Cmap.Invalidate ->
      page.Cpage.last_protocol_inval <- now;
      st.Cpage.invalidations <- st.Cpage.invalidations + 1;
      (* The data is about to change or move: no cached line of this page
         may survive anywhere (§7 software-maintained coherency). *)
      kill_cached_lines t ~vpage;
      emit t ~now (Probe.Invalidated { cpage; interrupted })
    | Cmap.Restrict_to_read ->
      st.Cpage.restrictions <- st.Cpage.restrictions + 1;
      page.Cpage.write_mapped <- false;
      emit t ~now (Probe.Restricted { cpage; interrupted }))
  | Zero_fill { counted } ->
    let frame = Option.get fresh in
    charge sc
      (Xbar.zero_fill ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
         ~now:(now + sc.s_latency) ~dst:(Frame.mem_module frame) ~words:(page_words t));
    Frame.fill_zero frame;
    if counted then begin
      kill_cached_lines t ~vpage;
      t.counters.Counters.zero_fills <- t.counters.Counters.zero_fills + 1
    end;
    Cpage.add_copy page frame
  | Free_copies keep ->
    let except =
      match keep with
      | Fault.Keep_local -> Option.get (Cpage.local_copy page target)
      | Keep_fresh -> Option.get fresh
      | Keep_chosen -> choose_copy page
      | Keep_newest -> Cpage.any_copy page
    in
    (* [Cpage.copies] snapshots the directory, newest first: the loop
       edits the slots. *)
    charge sc (free_copies t page ~except 0 (Cpage.copies page))
  | Settle -> page.Cpage.write_mapped <- false
  | Note_remote ->
    charge sc cfg.Config.map_existing_ns;
    st.Cpage.remote_maps <- st.Cpage.remote_maps + 1;
    t.counters.Counters.remote_maps <- t.counters.Counters.remote_maps + 1;
    emit t ~now (Probe.Remote_mapped { cpage; proc; frozen = page.Cpage.frozen })
  | Freeze { degraded = false } -> freeze_page t ~now page
  | Freeze { degraded = true } -> (
    freeze_page t ~now:(now + sc.s_latency) page;
    match Machine.inject t.machine with
    | Some i when page.Cpage.frozen -> Platinum_sim.Inject.note_degraded_freeze i
    | Some _ | None -> ())
  | Thaw -> thaw_page t ~now ~by_daemon:false page
  | Map Local ->
    (* Read mappings to this single copy may remain elsewhere; their
       cached lines must not survive the first write. *)
    if write then kill_cached_lines t ~vpage;
    charge sc cfg.Config.map_existing_ns;
    install t ~proc ~cm ~vpage ce (Option.get (Cpage.local_copy page target)) ~write_ok:write
  | Map Zeroed -> install t ~proc ~cm ~vpage ce (Option.get fresh) ~write_ok:write
  | Map Copied ->
    let frame = Option.get fresh in
    let to_module = Frame.mem_module frame in
    if write then begin
      st.Cpage.migrations <- st.Cpage.migrations + 1;
      t.counters.Counters.migrations <- t.counters.Counters.migrations + 1;
      emit t ~now (Probe.Migrated { cpage; to_module })
    end
    else begin
      st.Cpage.replications <- st.Cpage.replications + 1;
      t.counters.Counters.replications <- t.counters.Counters.replications + 1;
      emit t ~now (Probe.Replicated { cpage; to_module; copies = Cpage.ncopies page })
    end;
    install t ~proc ~cm ~vpage ce frame ~write_ok:write
  | Map Remote ->
    let full_rights =
      page.Cpage.frozen && Rights.allows_write ce.Cmap.vrights && Cpage.ncopies page = 1
    in
    (* Granting a write mapping (or any remote mapping of a modified page)
       ends the page's cachable era. *)
    if write || full_rights || Cpage.state page = Cpage.Modified then kill_cached_lines t ~vpage;
    install t ~proc ~cm ~vpage ce (choose_copy page) ~write_ok:(write || full_rights)
  | Alloc _ | Copy _ -> assert false (* [exec] branches on these *)

let rec exec t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh = function
  | [] -> ()
  | Fault.Alloc { place; fallback } :: rest -> (
    match alloc t sc ~proc ~target ce.Cmap.cpage place with
    | Some _ as fresh -> exec t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh rest
    | None -> (
      match fallback with
      | [] -> raise Fault.Out_of_physical_memory
      | _ -> exec t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh fallback))
  | Fault.Copy { abortable; on_abort } :: rest ->
    let page = ce.Cmap.cpage and dst = Option.get fresh in
    if copy t sc ~now ~abortable page ~dst then begin
      Cpage.add_copy page dst;
      exec t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh rest
    end
    else begin
      (* Abandon the destination frame. *)
      Phys_mem.free t.phys dst;
      t.counters.Counters.pages_freed <- t.counters.Counters.pages_freed + 1;
      charge sc (config t).Config.page_free_ns;
      exec t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh:None on_abort
    end
  | s :: rest ->
    step t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh s;
    exec t sc ~now ~proc ~target ~cm ~vpage ~ce ~write ~fresh rest

(* Resolve a fault by [proc] at [vpage] of [cm]'s space: the checks, probe
   event, counts and trap entry every fault shares, then its plan. *)
let fault t sc ~now ~proc ~cm ~vpage ~write =
  let ce =
    match Cmap.find cm ~vpage with
    | Some e -> e
    | None -> raise (Fault.Unmapped { aspace = Cmap.aspace cm; vpage })
  in
  let rights = ce.Cmap.vrights in
  if not (if write then Rights.allows_write rights else Rights.allows_read rights) then
    raise (Fault.Protection_violation { aspace = Cmap.aspace cm; vpage; write });
  let page = ce.Cmap.cpage in
  let st = page.Cpage.stats in
  if write then begin
    emit t ~now (Probe.Write_fault { cpage = page.Cpage.id; proc });
    st.Cpage.write_faults <- st.Cpage.write_faults + 1;
    t.counters.Counters.write_faults <- t.counters.Counters.write_faults + 1;
    st.Cpage.ever_written <- true
  end
  else begin
    emit t ~now (Probe.Read_fault { cpage = page.Cpage.id; proc });
    st.Cpage.read_faults <- st.Cpage.read_faults + 1;
    t.counters.Counters.read_faults <- t.counters.Counters.read_faults + 1
  end;
  let local = Cpage.has_copy_on page proc and copies = Cpage.ncopies page in
  let verdict =
    match Cpage.state page with
    | (Cpage.Present1 | Present_plus | Modified) when (not local) && copies > 0 ->
      Policy.decide t.policy ~now (if write then Policy.Write_fault else Policy.Read_fault) page
    | _ -> Policy.Replicate
  in
  sc.s_latency <- (config t).Config.fault_entry_ns;
  exec t sc ~now ~proc ~target:proc ~cm ~vpage ~ce ~write ~fresh:None
    (Fault.plan ~write ~state:(Cpage.state page) ~copies ~local ~frozen:page.Cpage.frozen verdict);
  t.counters.Counters.fault_ns <- t.counters.Counters.fault_ns + sc.s_latency

(* Translation misses that the Pmap cannot serve: a cold path, kept out of
   [translate] so the steady hit stays allocation-free. *)
let fault_in t sc ~now ~act ~proc ~cm ~vpage ~write =
  (match t.monitor with
  | None -> ()
  | Some m -> Check.note m ~now (Check.Request { proc; aspace = Cmap.aspace cm; vpage; write }));
  fault t sc ~now:(now + act) ~proc ~cm ~vpage ~write;
  checkpoint t ~now:(now + act + sc.s_latency);
  sc.s_latency <- act + sc.s_latency;
  match Pmap.find (Cmap.pmap cm ~proc) ~vpage with Some e -> e | None -> assert false

(* The translation entry for [vpage], faulting if needed; the latency goes
   into [sc].  Callers read it straight after the call: the fault handler
   runs inside, so nothing else may touch [sc] in between. *)
let translate t (sc : scratch) ~now ~proc ~cmap:cm ~vpage ~write =
  let aspace = Cmap.aspace cm in
  let act = activate t ~now ~proc ~aspace in
  let atc = t.atcs.(proc) in
  match Pmap.find (Cmap.pmap cm ~proc) ~vpage with
  | Some e when (not write) || e.Pmap.write_ok ->
    if Atc.holds atc e then sc.s_latency <- act
    else begin
      Atc.load atc e;
      t.counters.Counters.atc_reloads <- t.counters.Counters.atc_reloads + 1;
      sc.s_latency <- act + (config t).Config.atc_reload_ns
    end;
    e
  | _ -> fault_in t sc ~now ~act ~proc ~cm ~vpage ~write

(* §7: "Almost all data is cachable.  Only modified Cpages that are mapped
   by remote processors cannot be cached."  The mapping walk is a plain
   top-level recursion: a [List.for_all] closure would be allocated on
   every cached read. *)
let rec only_holder_maps holder = function
  | [] -> true
  | (cm, vpage) :: rest -> (
    match Cmap.find cm ~vpage with
    | None -> only_holder_maps holder rest
    | Some ce ->
      Procset.subset ce.Cmap.refmask (Procset.singleton holder)
      && only_holder_maps holder rest)

let cachable t (page : Cpage.t) =
  match Cpage.state page with
  | Cpage.Empty | Cpage.Present1 | Cpage.Present_plus -> true
  | Cpage.Modified ->
    let holder = Platinum_phys.Frame.mem_module (Cpage.any_copy page) in
    only_holder_maps holder (mappings_of t page)

(* --- the allocation-free word paths ---

   [finish_*] complete an access after translation.  The semantics (cache
   consultation, write-through invalidation, latency accounting) are
   byte-for-byte those of the seed's [chunk_cost], restructured so a
   steady-state hit — active aspace, ATC hit, sufficient rights — runs
   from [read_word_s]/[write_word_s] to the returned value without
   allocating a single minor-heap word: no options ([Pmap.find] returns
   a stored cell), no tuples (latency goes through the scratch), no
   closures (top-level functions, plain loops), no polymorphic-variant
   dispatch (the old [`Miss c] cache probe is inlined).  The page comes
   from the translation entry, not a second table lookup, and the page
   split is a shift on a power-of-two page. *)

let finish_read t (sc : scratch) ~now ~proc ~vaddr ~l1 (e : Pmap.entry) =
  let cfg = config t in
  let frame = e.Pmap.frame in
  let lat =
    if Machine.caches_enabled t.machine && cachable t e.Pmap.cpage then begin
      let c = Machine.cache_exn t.machine ~proc in
      if Platinum_machine.Cache.lookup c ~addr:vaddr then cfg.Config.t_cache_hit
      else begin
        let l2 =
          Xbar.access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
            ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Read ~words:1
        in
        Platinum_machine.Cache.fill c ~addr:vaddr;
        l2
      end
    end
    else
      Xbar.access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
        ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Read ~words:1
  in
  sc.s_latency <- l1 + lat;
  Frame.get frame (offset_of t vaddr)

(* Writes are write-through; other processors' cached copies of the word
   are invalidated in software (there is no snooping hardware, §7). *)
let after_write_inline t ~proc ~vaddr (e : Pmap.entry) =
  if Machine.caches_enabled t.machine then begin
    Machine.invalidate_cached_range_all t.machine ~addr:vaddr ~words:1;
    if cachable t e.Pmap.cpage then
      Platinum_machine.Cache.fill (Machine.cache_exn t.machine ~proc) ~addr:vaddr
  end

let finish_write t (sc : scratch) ~now ~proc ~vaddr ~l1 (e : Pmap.entry) v =
  let cfg = config t in
  let frame = e.Pmap.frame in
  let l2 =
    Xbar.access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
      ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Write ~words:1
  in
  Frame.set frame (offset_of t vaddr) v;
  after_write_inline t ~proc ~vaddr e;
  sc.s_latency <- l1 + l2

let finish_rmw t (sc : scratch) ~now ~proc ~vaddr ~l1 (e : Pmap.entry) f =
  let cfg = config t in
  let frame = e.Pmap.frame in
  let off = offset_of t vaddr in
  let l2 =
    Xbar.access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
      ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Rmw ~words:1
  in
  let old = Frame.get frame off in
  Frame.set frame off (f old);
  after_write_inline t ~proc ~vaddr e;
  sc.s_latency <- l1 + l2;
  old

let read_word_s t sc ~now ~proc ~cmap:cm ~vaddr =
  let e = translate t sc ~now ~proc ~cmap:cm ~vpage:(vpage_of t vaddr) ~write:false in
  finish_read t sc ~now ~proc ~vaddr ~l1:sc.s_latency e

let write_word_s t sc ~now ~proc ~cmap:cm ~vaddr v =
  let e = translate t sc ~now ~proc ~cmap:cm ~vpage:(vpage_of t vaddr) ~write:true in
  finish_write t sc ~now ~proc ~vaddr ~l1:sc.s_latency e v

let rmw_word_s t sc ~now ~proc ~cmap:cm ~vaddr f =
  let e = translate t sc ~now ~proc ~cmap:cm ~vpage:(vpage_of t vaddr) ~write:true in
  finish_rmw t sc ~now ~proc ~vaddr ~l1:sc.s_latency e f

(* --- the coalescing fast-path cores (DESIGN.md §4g) ---

   Hit-only variants of the [_s] word paths for the effect-boundary
   coalescer: they complete a word access if and only if it is a clean
   steady-state hit (a Pmap entry the ATC holds, sufficient rights,
   page not frozen), returning its latency, and return [-1]
   otherwise — they never translate, never fault, never touch policy
   state.  A successful call charges exactly what the [_s] path's hit arm
   charges (the same [finish_*] core at the same [now]), with the value
   in [fp_value].  Like that arm, they leave the monitor alone: it sweeps
   at protocol transitions, and a hit makes none.

   Every condition is read from the translation on every word, so the
   coalescer caches no verdict: the Pmaps, which shootdowns keep exact,
   stay the only cached copy of translation state.  A
   frozen page is shared through remote mappings of its single copy
   (§4.2), so its words keep the per-word path, where each access happens
   at its own charged time; the bit is read from the entry's page. *)

let fp_read t ~now ~proc ~cmap:cm ~vpage ~vaddr =
  match Pmap.find (Cmap.pmap cm ~proc) ~vpage with
  | Some e when Atc.holds t.atcs.(proc) e && not e.Pmap.cpage.Cpage.frozen ->
    t.fp_value := finish_read t t.scratch ~now ~proc ~vaddr ~l1:0 e;
    t.scratch.s_latency
  | _ -> -1

let fp_write t ~now ~proc ~cmap:cm ~vpage ~vaddr v =
  match Pmap.find (Cmap.pmap cm ~proc) ~vpage with
  | Some e when e.Pmap.write_ok && Atc.holds t.atcs.(proc) e && not e.Pmap.cpage.Cpage.frozen ->
    finish_write t t.scratch ~now ~proc ~vaddr ~l1:0 e v;
    t.scratch.s_latency
  | _ -> -1

let fp_rmw t ~now ~proc ~cmap:cm ~vpage ~vaddr f =
  match Pmap.find (Cmap.pmap cm ~proc) ~vpage with
  | Some e when e.Pmap.write_ok && Atc.holds t.atcs.(proc) e && not e.Pmap.cpage.Cpage.frozen ->
    t.fp_value := finish_rmw t t.scratch ~now ~proc ~vaddr ~l1:0 e f;
    t.scratch.s_latency
  | _ -> -1

let fp_value_cell t = t.fp_value

(* The multi-word access path: block and strided transfers bypass the
   word caches entirely (they are hardware block transfers, §7) but still
   make cached copies of the touched range stale.  Each chunk translates
   through {!translate} at the time it begins, so a fault raised
   mid-transaction is charged exactly as the unbatched per-word stream
   would charge it; the data plane of a chunk is one typed copy between
   the frame and the caller's slice. *)

(* Latency of an n-word hardware transfer chunk under fault injection: an
   aborted transfer charges the partial run it burned, then is retried;
   the adversary is bounded — after [max_copy_retries] aborts the final
   attempt always completes, so a transaction never fails, it only takes
   longer.  Without a plane this is exactly one Xbar access. *)
let rec block_xfer t ~now ~proc ~mem_module kind ~words ~attempt ~extra =
  let cfg = config t and modules = Machine.modules t.machine in
  match Machine.inject t.machine with
  | None -> Xbar.access cfg modules ~now ~proc ~mem_module kind ~words
  | Some i as inject -> (
    let aborted =
      if attempt >= Platinum_sim.Inject.max_copy_retries then None
      else Platinum_sim.Inject.block_abort i ~words
    in
    match aborted with
    | None ->
      let l = Xbar.access ?inject cfg modules ~now:(now + extra) ~proc ~mem_module kind ~words in
      if extra > 0 then Platinum_sim.Inject.note_recovery i extra;
      extra + l
    | Some w ->
      let extra =
        extra + Xbar.access ?inject cfg modules ~now:(now + extra) ~proc ~mem_module kind ~words:w
      in
      Platinum_sim.Inject.note_copy_retry i;
      block_xfer t ~now ~proc ~mem_module kind ~words ~attempt:(attempt + 1) ~extra)

let chunk_cost t (c : Memtxn.chunk) ~now ~proc ~cm ~write data =
  let vaddr = c.Memtxn.c_vaddr and words = c.Memtxn.c_words in
  let e = translate t t.scratch ~now ~proc ~cmap:cm ~vpage:(vpage_of t vaddr) ~write in
  let l1 = t.scratch.s_latency in
  let frame = e.Pmap.frame in
  let kind = if write then Xbar.Write else Xbar.Read in
  let l2 =
    block_xfer t ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) kind ~words
      ~attempt:0 ~extra:0
  in
  let off = offset_of t vaddr in
  if write then begin
    Frame.write_words frame ~off ~src:data ~src_off:c.Memtxn.c_index ~words;
    if Machine.caches_enabled t.machine then
      Machine.invalidate_cached_range_all t.machine ~addr:vaddr ~words
  end
  else Frame.read_words frame ~off ~dst:data ~dst_off:c.Memtxn.c_index ~words;
  l1 + l2

(* Each chunk is charged at [now] plus the latency of every earlier one. *)
let rec chunk_loop t c ~now ~proc ~cm ~write data lat =
  let lat = lat + chunk_cost t c ~now:(now + lat) ~proc ~cm ~write data in
  if Memtxn.next c then chunk_loop t c ~now ~proc ~cm ~write data lat else lat

let submit_block t ~now ~proc ~cm ~write data txn =
  Memtxn.validate txn;
  let c = t.cursor in
  if Memtxn.first c ~page_words:(page_words t) txn then
    chunk_loop t c ~now ~proc ~cm ~write data 0
  else 0

(* The one access path: word transactions go through the scratch fast
   cores, multi-word transactions through the chunk loop; it returns the
   latency, and a [Read] or [Rmw] leaves its word in [fp_value].  Neither
   path allocates in the steady state. *)
let submit t ~now ~proc ~cmap:cm txn =
  match txn with
  | Memtxn.Read { vaddr } ->
    t.fp_value := read_word_s t t.scratch ~now ~proc ~cmap:cm ~vaddr;
    t.scratch.s_latency
  | Memtxn.Write { vaddr; value } ->
    write_word_s t t.scratch ~now ~proc ~cmap:cm ~vaddr value;
    t.scratch.s_latency
  | Memtxn.Rmw { vaddr; f } ->
    t.fp_value := rmw_word_s t t.scratch ~now ~proc ~cmap:cm ~vaddr f;
    t.scratch.s_latency
  | Memtxn.Block_read { dst; _ } ->
    submit_block t ~now ~proc ~cm ~write:false dst txn
  | Memtxn.Block_write { src; _ } | Memtxn.Stride_write { src; _ } ->
    submit_block t ~now ~proc ~cm ~write:true src txn

(* The benchmark floor's page warm-up (coherent.mli). *)
let write_word t ~now ~proc ~cmap ~vaddr v =
  write_word_s t t.scratch ~now ~proc ~cmap ~vaddr v;
  t.scratch.s_latency

let set_probe t probe = t.probe <- probe
let set_freeze_hook t hook = t.freeze_hook <- hook

type advice =
  | Freeze
  | Thaw
  | Home of int

let advise t ~now ~proc ~cmap:cm ~vpage advice =
  let sweep lat =
    checkpoint t ~now:(now + lat);
    lat
  in
  let ce =
    match Cmap.find cm ~vpage with
    | Some e -> e
    | None -> raise (Fault.Unmapped { aspace = Cmap.aspace cm; vpage })
  in
  let page = ce.Cmap.cpage in
  let cfg = config t in
  (* Collapse the page's directory to one copy on module [m]. *)
  let collapse m =
    let sc = t.scratch in
    sc.s_latency <- 0;
    exec t sc ~now ~proc ~target:m ~cm ~vpage ~ce ~write:false ~fresh:None
      (Fault.collapse ~local:(Cpage.has_copy_on page m) ~copies:(Cpage.ncopies page));
    sc.s_latency
  in
  match advice with
  | Thaw ->
    thaw_page t ~now ~by_daemon:false page;
    sweep cfg.Config.map_existing_ns
  | Freeze ->
    if page.Cpage.frozen then 0
    else begin
      let lat = collapse page.Cpage.home in
      freeze_page t ~now page;
      sweep (lat + cfg.Config.map_existing_ns)
    end
  | Home m ->
    if m < 0 || m >= Machine.nprocs t.machine then invalid_arg "Coherent.advise: no such module";
    if Cpage.ncopies page = 1 && Cpage.has_copy_on page m then 0 else sweep (collapse m)

let frozen_pages t = t.frozen_list
let iter_cpages f t = Hashtbl.iter (fun _ p -> f p) t.cpages

(* --- sanitizer access --- *)

let set_monitor t m = t.monitor <- m
let monitor t = t.monitor
let atc t ~proc = t.atcs.(proc)
