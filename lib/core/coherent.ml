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
let scratch_latency sc = sc.s_latency

type t = {
  machine : Machine.t;
  phys : Phys_mem.t;
  counters : Counters.t;
  policy : Policy.t;
  atcs : Atc.t array;
  active_aspace : int array;  (* per processor; -1 = none *)
  cmaps : (int, Cmap.t) Hashtbl.t;
  cpages : (int, Cpage.t) Hashtbl.t;
  mutable next_aspace : int;
  mutable next_cpage : int;
  mappings : (int, (Cmap.t * int) list ref) Hashtbl.t;  (* cpage id -> bindings *)
  mutable frozen_list : Cpage.t list;
  mutable fault_ctx : Fault.ctx option;
  mutable probe : Probe.t option;
  mutable in_daemon : bool;  (* a thaw_all (defrost) pass is running *)
  mutable freeze_hook : (now:int -> Cpage.t -> unit) option;  (* defrost daemon's *)
  mutable monitor : Check.monitor option;  (* the runtime invariant monitor *)
  scratch : scratch;  (* submit's own result slot for word transactions *)
  txn_scratch : Memtxn.scratch option;  (* pre-wrapped for [?scratch:] passing *)
  (* Fast-path invalidation epoch (DESIGN.md §4g): bumped whenever any
     translation, directory state, frozen bit or the monitor changes, so
     the coalescing layer's cached page probes die.  Coarse by design —
     correctness only needs "no stale eligibility survives", and these
     events are all off the hit path. *)
  mutable fp_epoch : int;
  fp_value : int ref;
      (* result slot for the fp_read/fp_rmw hit cores — a shared cell
         ({!fp_value_cell}) so the coalescer reads it without a call *)
}

let machine t = t.machine
let config t = Machine.config t.machine
let phys t = t.phys
let counters t = t.counters
let policy t = t.policy
let page_words t = Phys_mem.page_words t.phys

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
  Hashtbl.iter
    (fun _ (page : Cpage.t) ->
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
  List.iter
    (fun (page : Cpage.t) ->
      if not page.Cpage.frozen then
        fail ~cpage:page.Cpage.id ~inv:"frozen-list-agreement" ~cite:"§4.2"
          "thawed page still on the frozen list")
    t.frozen_list;
  Hashtbl.iter (fun _ cm -> match Cmap.check_faults cm with Some f -> keep f | None -> ())
    t.cmaps;
  (* ATC consistency: the micro-ATC mirror, and the stale-translation
     property — every cached translation must be (physically) the live
     Pmap entry of the active address space. *)
  Array.iteri
    (fun p atc ->
      (match Atc.check_faults atc with Some f -> keep f | None -> ());
      match Atc.active_aspace atc with
      | None -> ()
      | Some aspace -> (
        match Hashtbl.find_opt t.cmaps aspace with
        | None ->
          fail ~inv:"stale-translation" ~cite:"§3.1" "ATC of proc %d caches unknown aspace %d"
            p aspace
        | Some cm ->
          let pmap = Cmap.pmap cm ~proc:p in
          Atc.iter
            (fun vpage e ->
              match Pmap.find pmap ~vpage with
              | Some e' when e' == e -> ()
              | Some _ ->
                fail ~inv:"stale-translation" ~cite:"§3.1"
                  "ATC of proc %d caches a superseded translation for vpage %d" p vpage
              | None ->
                fail ~inv:"stale-translation" ~cite:"§3.1"
                  "ATC of proc %d retains vpage %d with no Pmap entry" p vpage)
            atc))
    t.atcs;
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

(* Invalidate every cached fast-path eligibility probe (DESIGN.md §4g).
   Called from each protocol transition that can change a page's
   translation, rights, directory state or frozen bit — including the
   shootdown-bearing paths (unbind, thaw, collapse) and every fault
   resolution — plus monitor arming, which must force all traffic back
   onto the monitored full path. *)
let fp_bump t = t.fp_epoch <- t.fp_epoch + 1

let fp_epoch t = t.fp_epoch

(* A frozen page must have exactly one backing copy (§4.2: "there can only
   be one physical page backing a frozen Cpage").  A replica can slip in
   between an invalidation and the next miss when fault-handling latency
   crosses the t1 boundary mid-operation; in that case the page is being
   read-shared successfully and freezing is declined — the caller's remote
   mapping is still installed and harmless. *)
let freeze_page t ~now (page : Cpage.t) =
  if (not page.Cpage.frozen) && Cpage.ncopies page = 1 then begin
    fp_bump t;
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

let thaw_page t ~now (page : Cpage.t) =
  if page.Cpage.frozen then begin
    fp_bump t;
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
    (* Clear any surviving refmask bits (the initiator slot). *)
    List.iter
      (fun (cmap, vpage) ->
        match Cmap.find cmap ~vpage with
        | None -> ()
        | Some ce ->
          Procset.iter
            (fun p ->
              Pmap.remove (Cmap.pmap cmap ~proc:p) ~vpage;
              Atc.invalidate t.atcs.(p) ~aspace:(Cmap.aspace cmap) ~vpage)
            ce.Cmap.refmask;
          ce.Cmap.refmask <- Procset.empty)
      (mappings_of t page);
    page.Cpage.write_mapped <- false;
    Cpage.sync_state page;
    page.Cpage.last_thaw_at <- now;
    emit t ~now (Probe.Thawed { cpage = page.Cpage.id; by_daemon = t.in_daemon });
    checkpoint t ~now
  end

let thaw_all t ~now =
  t.in_daemon <- true;
  List.iter (fun page -> thaw_page t ~now page) t.frozen_list;
  t.in_daemon <- false

let fault_ctx t =
  match t.fault_ctx with
  | Some c -> c
  | None ->
    let hooks = { Policy.freeze = (fun ~now p -> freeze_page t ~now p);
                  thaw = (fun ~now p -> thaw_page t ~now p) }
    in
    let c =
      {
        Fault.machine = t.machine;
        phys = t.phys;
        counters = t.counters;
        atcs = t.atcs;
        policy = t.policy;
        hooks;
        mappings_of = (fun page -> mappings_of t page);
        (* When the monitor is armed, every probe event the fault handler
           emits is also recorded into the replayable trace. *)
        probe =
          (fun () ->
            match t.monitor with
            | None -> t.probe
            | Some m ->
              Some
                (fun ~now ev ->
                  Check.note m ~now (Check.Event ev);
                  match t.probe with None -> () | Some p -> p ~now ev));
        monitor = (fun () -> t.monitor);
      }
    in
    t.fault_ctx <- Some c;
    c

let create machine ~engine:_ ~policy ?(frames_per_module = 1024) () =
  let config = Machine.config machine in
  let nprocs = config.Config.nprocs in
  {
    machine;
    phys =
      Phys_mem.create ~modules:nprocs ~frames_per_module
        ~page_words:config.Config.page_words;
    counters = Counters.create ();
    policy;
    atcs = Array.init nprocs (fun proc -> Atc.create ~proc);
    active_aspace = Array.make nprocs (-1);
    cmaps = Hashtbl.create 8;
    cpages = Hashtbl.create 1024;
    next_aspace = 0;
    next_cpage = 0;
    mappings = Hashtbl.create 1024;
    frozen_list = [];
    fault_ctx = None;
    probe = None;
    in_daemon = false;
    freeze_hook = None;
    (* PLATINUM_CHECK=1 arms the coherence sanitizer at construction. *)
    monitor = (if Check.env_enabled () then Some (Check.create_monitor ()) else None);
    scratch = make_scratch ();
    txn_scratch = Some (Memtxn.make_scratch ());
    fp_epoch = 0;
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
  fp_bump t;
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

let unbind t ~now cm ~vpage =
  match Cmap.find cm ~vpage with
  | None -> 0
  | Some ce ->
    fp_bump t;
    let page = ce.Cmap.cpage in
    let r =
      Shootdown.run ?monitor:t.monitor ~machine:t.machine ~counters:t.counters ~atcs:t.atcs
        ~now ~initiator:0 ~mappings:[ (cm, vpage) ] ~directive:Cmap.Invalidate ~spare:None ()
    in
    Procset.iter
      (fun p ->
        Pmap.remove (Cmap.pmap cm ~proc:p) ~vpage;
        Atc.invalidate t.atcs.(p) ~aspace:(Cmap.aspace cm) ~vpage)
      ce.Cmap.refmask;
    ce.Cmap.refmask <- Procset.empty;
    Cmap.unbind cm ~vpage;
    (match Hashtbl.find_opt t.mappings page.Cpage.id with
    | None -> ()
    | Some lst -> lst := List.filter (fun (c, v) -> not (c == cm && v = vpage)) !lst);
    (* If nothing maps the page it keeps its copies (the memory object
       still owns the data); translations are simply gone. *)
    page.Cpage.write_mapped <- false;
    Cpage.sync_state page;
    checkpoint t ~now;
    r.Shootdown.latency

let activate t ~now:_ ~proc ~aspace =
  if t.active_aspace.(proc) = aspace then 0
  else begin
    fp_bump t;
    let prev = t.active_aspace.(proc) in
    if prev >= 0 then begin
      match Hashtbl.find_opt t.cmaps prev with
      | Some old -> Cmap.set_active old ~proc false
      | None -> ()
    end;
    t.active_aspace.(proc) <- aspace;
    let cm = cmap t ~aspace in
    Cmap.set_active cm ~proc true;
    ignore (Atc.activate t.atcs.(proc) ~aspace);
    (* The §7 caches are virtually indexed: flush on space switch. *)
    (match Machine.cache t.machine ~proc with
    | Some c -> Platinum_machine.Cache.flush c
    | None -> ());
    (config t).Config.aspace_activate_ns
  end

let translate t ~now ~proc ~cmap:cm ~vpage ~write =
  let aspace = Cmap.aspace cm in
  let act = activate t ~now ~proc ~aspace in
  let atc = t.atcs.(proc) in
  match Atc.find atc ~aspace ~vpage with
  | Some e when (not write) || e.Pmap.write_ok -> (e, act)
  | _ -> (
    match Pmap.find (Cmap.pmap cm ~proc) ~vpage with
    | Some e when (not write) || e.Pmap.write_ok ->
      Atc.load atc ~vpage e;
      t.counters.Counters.atc_reloads <- t.counters.Counters.atc_reloads + 1;
      (e, act + (config t).Config.atc_reload_ns)
    | _ ->
      (match t.monitor with
      | None -> ()
      | Some m -> Check.note m ~now (Check.Request { proc; aspace; vpage; write }));
      (* Any fault resolution may replicate, migrate, shoot down or
         freeze: cached fast-path probes are stale. *)
      fp_bump t;
      let entry, lat = Fault.handle (fault_ctx t) ~now:(now + act) ~proc ~cmap:cm ~vpage ~write in
      checkpoint t ~now:(now + act + lat);
      (entry, act + lat))

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
  match page.Cpage.state with
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
   allocating a single minor-heap word: no options ([Atc.find]/[Cmap.find]
   return stored cells), no tuples (latency goes through the scratch), no
   closures (top-level functions, plain loops), no polymorphic-variant
   dispatch (the old [`Miss c] cache probe is inlined). *)

let page_of cm ~vpage =
  match Cmap.find cm ~vpage with
  | Some ce -> ce.Cmap.cpage
  | None -> assert false (* only called after a successful translation *)

let finish_read t (sc : scratch) ~now ~proc ~cm ~vpage ~vaddr ~l1 (e : Pmap.entry) =
  let cfg = config t in
  let frame = e.Pmap.frame in
  let lat =
    if
      Machine.caches_enabled t.machine
      && cachable t (page_of cm ~vpage)
    then begin
      let c = Machine.cache_exn t.machine ~proc in
      if Platinum_machine.Cache.lookup c ~addr:vaddr then cfg.Config.t_cache_hit
      else begin
        let l2 =
          Xbar.word_access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
            ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Read
        in
        Platinum_machine.Cache.fill c ~addr:vaddr;
        l2
      end
    end
    else
      Xbar.word_access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
        ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Read
  in
  sc.s_latency <- l1 + lat;
  Frame.get frame (vaddr mod page_words t)

(* Writes are write-through; other processors' cached copies of the word
   are invalidated in software (there is no snooping hardware, §7). *)
let after_write_inline t ~proc ~cm ~vpage ~vaddr =
  if Machine.caches_enabled t.machine then begin
    Machine.invalidate_cached_range_all t.machine ~addr:vaddr ~words:1;
    if cachable t (page_of cm ~vpage) then
      Platinum_machine.Cache.fill (Machine.cache_exn t.machine ~proc) ~addr:vaddr
  end

let finish_write t (sc : scratch) ~now ~proc ~cm ~vpage ~vaddr ~l1 (e : Pmap.entry) v =
  let cfg = config t in
  let frame = e.Pmap.frame in
  let l2 =
    Xbar.word_access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
      ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Write
  in
  Frame.set frame (vaddr mod page_words t) v;
  after_write_inline t ~proc ~cm ~vpage ~vaddr;
  sc.s_latency <- l1 + l2

let finish_rmw t (sc : scratch) ~now ~proc ~cm ~vpage ~vaddr ~l1 (e : Pmap.entry) f =
  let cfg = config t in
  let frame = e.Pmap.frame in
  let off = vaddr mod page_words t in
  let l2 =
    Xbar.word_access ?inject:(Machine.inject t.machine) cfg (Machine.modules t.machine)
      ~now:(now + l1) ~proc ~mem_module:(Frame.mem_module frame) Xbar.Rmw
  in
  let old = Frame.get frame off in
  Frame.set frame off (f old);
  after_write_inline t ~proc ~cm ~vpage ~vaddr;
  sc.s_latency <- l1 + l2;
  old

let read_word_s t sc ~now ~proc ~cmap:cm ~vaddr =
  let vpage = vaddr / page_words t in
  let aspace = Cmap.aspace cm in
  if t.active_aspace.(proc) = aspace then
    match Atc.find t.atcs.(proc) ~aspace ~vpage with
    | Some e -> finish_read t sc ~now ~proc ~cm ~vpage ~vaddr ~l1:0 e
    | None ->
      let e, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:false in
      finish_read t sc ~now ~proc ~cm ~vpage ~vaddr ~l1 e
  else
    let e, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:false in
    finish_read t sc ~now ~proc ~cm ~vpage ~vaddr ~l1 e

let write_word_s t sc ~now ~proc ~cmap:cm ~vaddr v =
  let vpage = vaddr / page_words t in
  let aspace = Cmap.aspace cm in
  if t.active_aspace.(proc) = aspace then
    match Atc.find t.atcs.(proc) ~aspace ~vpage with
    | Some e when e.Pmap.write_ok -> finish_write t sc ~now ~proc ~cm ~vpage ~vaddr ~l1:0 e v
    | _ ->
      let e, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:true in
      finish_write t sc ~now ~proc ~cm ~vpage ~vaddr ~l1 e v
  else
    let e, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:true in
    finish_write t sc ~now ~proc ~cm ~vpage ~vaddr ~l1 e v

let rmw_word_s t sc ~now ~proc ~cmap:cm ~vaddr f =
  let vpage = vaddr / page_words t in
  let aspace = Cmap.aspace cm in
  if t.active_aspace.(proc) = aspace then
    match Atc.find t.atcs.(proc) ~aspace ~vpage with
    | Some e when e.Pmap.write_ok -> finish_rmw t sc ~now ~proc ~cm ~vpage ~vaddr ~l1:0 e f
    | _ ->
      let e, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:true in
      finish_rmw t sc ~now ~proc ~cm ~vpage ~vaddr ~l1 e f
  else
    let e, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:true in
    finish_rmw t sc ~now ~proc ~cm ~vpage ~vaddr ~l1 e f

(* --- the coalescing fast-path cores (DESIGN.md §4g) ---

   Hit-only variants of the [_s] word paths for the effect-boundary
   coalescer: they complete a word access if and only if it is a clean
   steady-state hit (active aspace, ATC entry, sufficient rights),
   returning its latency, and return [-1] otherwise — they never
   translate, never fault, never touch policy state.  A successful call
   charges exactly what the [_s] path's hit arm charges (the same
   [finish_*] core at the same [now]), with the value in [fp_value].

   Page-level eligibility (frozen bit, monitor, aspace residency) is
   checked once per page by [fp_page_ok] and cached by the caller against
   {!fp_epoch}; the per-word cores still re-verify the ATC hit so a stale
   cache can only decline, never mis-accept. *)

let fp_page_ok t ~proc ~cmap:cm ~vpage ~write =
  (match t.monitor with None -> true | Some _ -> false)
  && t.active_aspace.(proc) = Cmap.aspace cm
  && (match Atc.find t.atcs.(proc) ~aspace:(Cmap.aspace cm) ~vpage with
     | Some e -> (
       ((not write) || e.Pmap.write_ok)
       && match Cmap.find cm ~vpage with
          | Some ce -> not ce.Cmap.cpage.Cpage.frozen
          | None -> false)
     | None -> false)

let fp_read t ~now ~proc ~cmap:cm ~vpage ~vaddr =
  let aspace = Cmap.aspace cm in
  if t.active_aspace.(proc) = aspace then
    match Atc.find t.atcs.(proc) ~aspace ~vpage with
    | Some e ->
      t.fp_value := finish_read t t.scratch ~now ~proc ~cm ~vpage ~vaddr ~l1:0 e;
      t.scratch.s_latency
    | None -> -1
  else -1

let fp_write t ~now ~proc ~cmap:cm ~vpage ~vaddr v =
  let aspace = Cmap.aspace cm in
  if t.active_aspace.(proc) = aspace then
    match Atc.find t.atcs.(proc) ~aspace ~vpage with
    | Some e when e.Pmap.write_ok ->
      finish_write t t.scratch ~now ~proc ~cm ~vpage ~vaddr ~l1:0 e v;
      t.scratch.s_latency
    | _ -> -1
  else -1

let fp_rmw t ~now ~proc ~cmap:cm ~vpage ~vaddr f =
  let aspace = Cmap.aspace cm in
  if t.active_aspace.(proc) = aspace then
    match Atc.find t.atcs.(proc) ~aspace ~vpage with
    | Some e when e.Pmap.write_ok ->
      t.fp_value := finish_rmw t t.scratch ~now ~proc ~cm ~vpage ~vaddr ~l1:0 e f;
      t.scratch.s_latency
    | _ -> -1
  else -1

let fp_value_cell t = t.fp_value

(* The multi-word access path.  Memtxn.run drives the per-page chunk loop
   and the latency accumulation; this chunk_cost supplies the PLATINUM
   semantics: block and strided transfers bypass the word caches entirely
   (they are hardware block transfers, §7) but still make cached copies of
   the touched range stale.  Each chunk translates through {!translate} at
   the time it begins, so a fault raised mid-transaction is charged exactly
   as the unbatched per-word stream would charge it; the data plane of a
   chunk is one typed copy between the frame and the caller's slice. *)
let submit_block t ~now ~proc ~cmap:cm txn =
  let cfg = config t in
  let modules = Machine.modules t.machine in
  let pw = page_words t in
  let inj = Machine.inject t.machine in
  (* Latency of an n-word hardware transfer chunk under fault injection: an
     aborted transfer charges the partial run it burned, then is retried;
     the adversary is bounded — after [max_copy_retries] aborts the final
     attempt always completes, so a transaction never fails, it only takes
     longer.  Without a plane this is exactly one Xbar access. *)
  let block_xfer ~now ~mem_module kind ~words =
    match inj with
    | None -> Xbar.access cfg modules ~now ~proc ~mem_module kind ~words
    | Some i ->
      let extra = ref 0 in
      let rec go attempt =
        let aborted =
          if attempt >= Platinum_sim.Inject.max_copy_retries i then None
          else Platinum_sim.Inject.block_abort i ~words
        in
        match aborted with
        | None ->
          let l =
            Xbar.access ~inject:i cfg modules ~now:(now + !extra) ~proc ~mem_module kind
              ~words
          in
          if !extra > 0 then Platinum_sim.Inject.note_recovery i !extra;
          !extra + l
        | Some w ->
          extra :=
            !extra
            + Xbar.access ~inject:i cfg modules ~now:(now + !extra) ~proc ~mem_module kind
                ~words:w;
          Platinum_sim.Inject.note_copy_retry i;
          go (attempt + 1)
      in
      go 0
  in
  let chunk_cost ~now ~data (c : Memtxn.chunk) =
    let vaddr = c.Memtxn.c_vaddr in
    let vpage = vaddr / pw and off = vaddr mod pw in
    match txn with
    | Memtxn.Read _ | Memtxn.Write _ | Memtxn.Rmw _ ->
      assert false (* word transactions take the scratch path in [submit] *)
    | Memtxn.Block_read _ | Memtxn.Stride_read _ ->
      let entry, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:false in
      let frame = entry.Pmap.frame in
      let l2 =
        block_xfer ~now:(now + l1) ~mem_module:(Frame.mem_module frame) Xbar.Read
          ~words:c.Memtxn.c_words
      in
      Frame.read_words frame ~off ~dst:data ~dst_off:c.Memtxn.c_index ~words:c.Memtxn.c_words;
      l1 + l2
    | Memtxn.Block_write _ | Memtxn.Stride_write _ ->
      let entry, l1 = translate t ~now ~proc ~cmap:cm ~vpage ~write:true in
      let frame = entry.Pmap.frame in
      let l2 =
        block_xfer ~now:(now + l1) ~mem_module:(Frame.mem_module frame) Xbar.Write
          ~words:c.Memtxn.c_words
      in
      Frame.write_words frame ~off ~src:data ~src_off:c.Memtxn.c_index ~words:c.Memtxn.c_words;
      (* Block writes bypass the caches but still make cached copies of
         the run stale. *)
      if Machine.caches_enabled t.machine then
        Machine.invalidate_cached_range_all t.machine ~addr:vaddr ~words:c.Memtxn.c_words;
      l1 + l2
  in
  Memtxn.run ~page_words:pw ~now ?scratch:t.txn_scratch txn ~chunk_cost

(* The one access path: word transactions go through the scratch fast
   cores (same semantics, no per-word allocation), multi-word transactions
   through the shared Memtxn chunk loop. *)
let submit t ~now ~proc ~cmap:cm txn =
  match txn with
  | Memtxn.Read { vaddr } ->
    let v = read_word_s t t.scratch ~now ~proc ~cmap:cm ~vaddr in
    (Memtxn.Word v, t.scratch.s_latency)
  | Memtxn.Write { vaddr; value } ->
    write_word_s t t.scratch ~now ~proc ~cmap:cm ~vaddr value;
    (Memtxn.Unit, t.scratch.s_latency)
  | Memtxn.Rmw { vaddr; f } ->
    let old = rmw_word_s t t.scratch ~now ~proc ~cmap:cm ~vaddr f in
    (Memtxn.Word old, t.scratch.s_latency)
  | Memtxn.Block_read _ | Memtxn.Block_write _ | Memtxn.Stride_read _ | Memtxn.Stride_write _
    -> submit_block t ~now ~proc ~cmap:cm txn

(* Single-op conveniences, kept for tests and callers that move one word. *)

let read_word t ~now ~proc ~cmap ~vaddr =
  let v = read_word_s t t.scratch ~now ~proc ~cmap ~vaddr in
  (v, t.scratch.s_latency)

let write_word t ~now ~proc ~cmap ~vaddr v =
  write_word_s t t.scratch ~now ~proc ~cmap ~vaddr v;
  t.scratch.s_latency

let rmw_word t ~now ~proc ~cmap ~vaddr f =
  let old = rmw_word_s t t.scratch ~now ~proc ~cmap ~vaddr f in
  (old, t.scratch.s_latency)

let block_read t ~now ~proc ~cmap ~vaddr ~len =
  let dst = Array.make (max len 0) 0 in
  let _, lat = submit t ~now ~proc ~cmap (Memtxn.Block_read { vaddr; dst; dst_off = 0; len }) in
  (dst, lat)

let block_write t ~now ~proc ~cmap ~vaddr src =
  let len = Array.length src in
  snd (submit t ~now ~proc ~cmap (Memtxn.Block_write { vaddr; src; src_off = 0; len }))

let set_probe t probe = t.probe <- probe
let set_freeze_hook t hook = t.freeze_hook <- hook

let daemon_thaw t ~now page =
  t.in_daemon <- true;
  thaw_page t ~now page;
  t.in_daemon <- false
type advice =
  | Advise_freeze
  | Advise_thaw
  | Advise_home of int

(* Collapse a page's directory to one copy, preferring module [keep_on]
   (allocating there if needed); shoots down every translation. *)
let collapse_to t ~now ~proc ~keep_on (page : Cpage.t) =
  fp_bump t;
  let lat = ref 0 in
  let cfg = config t in
  let chosen =
    match Cpage.local_copy page keep_on with
    | Some f -> Some f
    | None -> (
      match Phys_mem.alloc_local t.phys ~mem_module:keep_on ~cpage:page.Cpage.id with
      | None -> (if Cpage.ncopies page = 0 then None else Some (Cpage.any_copy page))
      | Some fresh ->
        lat := !lat + cfg.Config.alloc_map_remote_ns;
        let inj = Machine.inject t.machine in
        if Cpage.ncopies page = 0 then begin
          lat :=
            !lat
            + Xbar.zero_fill ?inject:inj cfg (Machine.modules t.machine) ~now:(now + !lat)
                ~dst:keep_on ~words:(page_words t);
          Frame.fill_zero fresh
        end
        else begin
          let src = Cpage.any_copy page in
          lat :=
            !lat
            + Xbar.block_copy ?inject:inj cfg (Machine.modules t.machine) ~now:(now + !lat)
                ~src:(Frame.mem_module src) ~dst:keep_on ~words:(page_words t);
          Frame.blit_from ~src ~dst:fresh
        end;
        Cpage.add_copy page fresh;
        Some fresh)
  in
  match chosen with
  | None -> !lat (* truly out of memory and no copies: nothing to do *)
  | Some keep ->
    let r =
      Shootdown.run ?monitor:t.monitor ~machine:t.machine ~counters:t.counters ~atcs:t.atcs
        ~now:(now + !lat) ~initiator:proc ~mappings:(mappings_of t page)
        ~directive:Cmap.Invalidate ~spare:None ()
    in
    lat := !lat + r.Shootdown.latency;
    List.iter
      (fun f ->
        if f != keep then begin
          Cpage.remove_copy page f;
          Phys_mem.free t.phys f;
          lat := !lat + cfg.Config.page_free_ns;
          t.counters.Counters.pages_freed <- t.counters.Counters.pages_freed + 1
        end)
      (Cpage.copies page);
    page.Cpage.write_mapped <- false;
    Cpage.sync_state page;
    !lat

let advise t ~now ~proc ~cmap:cm ~vpage advice =
  let sweep lat =
    checkpoint t ~now:(now + lat);
    lat
  in
  let centry =
    match Cmap.find cm ~vpage with
    | Some e -> e
    | None -> raise (Fault.Unmapped { aspace = Cmap.aspace cm; vpage })
  in
  let page = centry.Cmap.cpage in
  let cfg = config t in
  match advice with
  | Advise_thaw ->
    thaw_page t ~now page;
    sweep cfg.Config.map_existing_ns
  | Advise_freeze ->
    if page.Cpage.frozen then 0
    else begin
      let lat = collapse_to t ~now ~proc ~keep_on:page.Cpage.home page in
      freeze_page t ~now page;
      sweep (lat + cfg.Config.map_existing_ns)
    end
  | Advise_home m ->
    if m < 0 || m >= Machine.nprocs t.machine then invalid_arg "Coherent.advise: no such module";
    if Cpage.ncopies page = 1 && Cpage.has_copy_on page m then 0
    else sweep (collapse_to t ~now ~proc ~keep_on:m page)

let frozen_pages t = t.frozen_list
let iter_cpages f t = Hashtbl.iter (fun _ p -> f p) t.cpages
let n_cpages t = Hashtbl.length t.cpages

(* --- sanitizer access --- *)

let set_monitor t m =
  fp_bump t;
  t.monitor <- m
let monitor t = t.monitor
let atc t ~proc = t.atcs.(proc)
