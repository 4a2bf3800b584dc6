module Machine = Platinum_machine.Machine
module Config = Platinum_machine.Config
module Xbar = Platinum_machine.Xbar
module Procset = Platinum_machine.Procset
module Frame = Platinum_phys.Frame
module Phys_mem = Platinum_phys.Phys_mem

exception Unmapped of { aspace : int; vpage : int }
exception Protection_violation of { aspace : int; vpage : int; write : bool }
exception Out_of_physical_memory

type ctx = {
  machine : Machine.t;
  phys : Phys_mem.t;
  counters : Counters.t;
  atcs : Atc.t array;
  policy : Policy.t;
  hooks : Policy.hooks;
  mappings_of : Cpage.t -> (Cmap.t * int) list;
  probe : unit -> Probe.t option;
  monitor : unit -> Check.monitor option;
}

(* Allocation/mapping overhead depends on whether the Cpage metadata lives
   in the faulting processor's module — the paper's 0.23 ms vs 0.27 ms. *)
let alloc_map_cost (config : Config.t) (page : Cpage.t) ~proc =
  if page.Cpage.home = proc then config.alloc_map_local_ns else config.alloc_map_remote_ns

let free_copies ctx (page : Cpage.t) ~except =
  let config = Machine.config ctx.machine in
  let freed = ref 0 in
  (* [Cpage.copies] snapshots the directory (newest first, as the old cons
     list was ordered) — required, since the loop edits the slots. *)
  List.iter
    (fun f ->
      if f != except then begin
        Cpage.remove_copy page f;
        Phys_mem.free ctx.phys f;
        incr freed;
        ctx.counters.Counters.pages_freed <- ctx.counters.Counters.pages_freed + 1
      end)
    (Cpage.copies page);
  !freed * config.Config.page_free_ns

(* Prefer the copy on the page's home module for remote mappings, so frozen
   pages have a stable placement. *)
let choose_copy (page : Cpage.t) =
  match Cpage.local_copy page page.Cpage.home with
  | Some f -> f
  | None -> Cpage.any_copy page

let handle ctx ~now ~proc ~cmap ~vpage ~write =
  let config = Machine.config ctx.machine in
  let centry =
    match Cmap.find cmap ~vpage with
    | Some e -> e
    | None -> raise (Unmapped { aspace = Cmap.aspace cmap; vpage })
  in
  let allowed =
    if write then Rights.allows_write centry.Cmap.vrights
    else Rights.allows_read centry.Cmap.vrights
  in
  if not allowed then raise (Protection_violation { aspace = Cmap.aspace cmap; vpage; write });
  let page = centry.Cmap.cpage in
  let st = page.Cpage.stats in
  let emit ev = match ctx.probe () with None -> () | Some p -> p ~now ev in
  emit
    (if write then Probe.Write_fault { cpage = page.Cpage.id; proc }
     else Probe.Read_fault { cpage = page.Cpage.id; proc });
  if write then begin
    st.Cpage.write_faults <- st.Cpage.write_faults + 1;
    ctx.counters.Counters.write_faults <- ctx.counters.Counters.write_faults + 1;
    st.Cpage.ever_written <- true
  end
  else begin
    st.Cpage.read_faults <- st.Cpage.read_faults + 1;
    ctx.counters.Counters.read_faults <- ctx.counters.Counters.read_faults + 1
  end;
  let lat = ref config.Config.fault_entry_ns in
  let install frame ~write_ok =
    let pmap = Cmap.pmap cmap ~proc in
    let entry = Pmap.install pmap ~vpage ~frame ~write_ok in
    centry.Cmap.refmask <- Procset.add proc centry.Cmap.refmask;
    let atc = ctx.atcs.(proc) in
    if Atc.is_active atc ~aspace:(Cmap.aspace cmap) then Atc.load atc ~vpage entry;
    if write_ok then page.Cpage.write_mapped <- true;
    Cpage.sync_state page;
    entry
  in
  let alloc_frame ?(first_touch = false) () =
    (* First-touch placement is local unless the policy scatters data
       round-robin across modules (the Uniform System baseline). *)
    let prefer =
      if first_touch && ctx.policy.Policy.scatter_placement then
        page.Cpage.id mod config.Config.nprocs
      else proc
    in
    match Phys_mem.alloc_preferring ctx.phys ~prefer ~cpage:page.Cpage.id with
    | Some f ->
      lat := !lat + alloc_map_cost config page ~proc;
      Some f
    | None -> None
  in
  let inj = Machine.inject ctx.machine in
  (* Copy the page into [dst]; [false] means the block transfer aborted
     repeatedly (fault injection) and the caller must degrade.  Each abort
     still charges the partial occupancy it burned before failing.  Without
     an attached plane this is exactly the single fault-free transfer. *)
  let block_copy_into ~dst =
    let src = Cpage.any_copy page in
    let words = Phys_mem.page_words ctx.phys in
    let uncontended = words * config.Config.t_block_word in
    let charge w =
      let clat =
        Xbar.block_copy ?inject:inj config (Machine.modules ctx.machine) ~now:(now + !lat)
          ~src:(Frame.mem_module src) ~dst:(Frame.mem_module dst) ~words:w
      in
      lat := !lat + clat;
      ctx.counters.Counters.copy_ns <- ctx.counters.Counters.copy_ns + clat;
      clat
    in
    let complete () =
      let clat = charge words in
      Frame.blit_from ~src ~dst;
      (* Queueing beyond the raw transfer is the paper's per-page "contention
         in the Cpage fault handler" measure. *)
      st.Cpage.fault_wait_ns <- st.Cpage.fault_wait_ns + (clat - uncontended)
    in
    match inj with
    | None ->
      complete ();
      true
    | Some inj ->
      let extra = ref 0 in
      let rec go attempt =
        match Platinum_sim.Inject.block_abort inj ~words with
        | None ->
          complete ();
          if !extra > 0 then Platinum_sim.Inject.note_recovery inj !extra;
          true
        | Some w ->
          extra := !extra + charge w;
          if attempt >= Platinum_sim.Inject.max_copy_retries inj then begin
            Platinum_sim.Inject.note_recovery inj !extra;
            false
          end
          else begin
            Platinum_sim.Inject.note_copy_retry inj;
            go (attempt + 1)
          end
      in
      go 0
  in
  (* Degradation after repeated aborts: abandon the destination frame and
     pin the page where it already lives by freezing it in place — the
     paper's own escape hatch for pages not worth moving (§4.2).  Freezing
     declines unless the directory is down to one copy, in which case the
     page simply stays remote-mapped. *)
  let abandon_frame frame =
    Phys_mem.free ctx.phys frame;
    ctx.counters.Counters.pages_freed <- ctx.counters.Counters.pages_freed + 1;
    lat := !lat + config.Config.page_free_ns
  in
  let shootdown directive ~spare =
    let r =
      Shootdown.run ?monitor:(ctx.monitor ()) ~machine:ctx.machine ~counters:ctx.counters
        ~atcs:ctx.atcs ~now:(now + !lat) ~initiator:proc ~mappings:(ctx.mappings_of page)
        ~directive ~spare ()
    in
    lat := !lat + r.Shootdown.latency;
    r.Shootdown.interrupted
  in
  let pw = Phys_mem.page_words ctx.phys in
  let kill_cached_lines () =
    Machine.invalidate_cached_range_all ctx.machine ~addr:(vpage * pw) ~words:pw
  in
  let protocol_invalidate ~spare =
    let interrupted = shootdown Cmap.Invalidate ~spare in
    page.Cpage.last_protocol_inval <- now;
    st.Cpage.invalidations <- st.Cpage.invalidations + 1;
    (* The data is about to change or move: no cached line of this page
       may survive anywhere (§7 software-maintained coherency). *)
    kill_cached_lines ();
    emit (Probe.Invalidated { cpage = page.Cpage.id; interrupted })
  in
  let remote_map () =
    let frame = choose_copy page in
    lat := !lat + config.Config.map_existing_ns;
    st.Cpage.remote_maps <- st.Cpage.remote_maps + 1;
    ctx.counters.Counters.remote_maps <- ctx.counters.Counters.remote_maps + 1;
    emit (Probe.Remote_mapped { cpage = page.Cpage.id; proc; frozen = page.Cpage.frozen });
    (* A frozen page is mapped with the full rights the VM system permits,
       so it will fault no further (§3.3). *)
    let full_rights =
      page.Cpage.frozen && Rights.allows_write centry.Cmap.vrights && Cpage.ncopies page = 1
    in
    if write && Cpage.ncopies page > 1 then begin
      (* A write through a remote mapping still requires a single copy. *)
      protocol_invalidate ~spare:None;
      let kept = choose_copy page in
      lat := !lat + free_copies ctx page ~except:kept;
      install kept ~write_ok:true
    end
    else begin
      (* Granting a write mapping (or any remote mapping of a modified
         page) ends the page's cachable era. *)
      if write || full_rights || page.Cpage.state = Cpage.Modified then kill_cached_lines ();
      install frame ~write_ok:(write || full_rights)
    end
  in
  let result =
    match page.Cpage.state with
    | Cpage.Empty ->
      (* First touch: allocate locally and zero-fill. *)
      let frame =
        match alloc_frame ~first_touch:true () with
        | Some f -> f
        | None -> raise Out_of_physical_memory
      in
      let words = Phys_mem.page_words ctx.phys in
      lat :=
        !lat
        + Xbar.zero_fill ?inject:inj config (Machine.modules ctx.machine) ~now:(now + !lat)
            ~dst:(Frame.mem_module frame) ~words;
      Frame.fill_zero frame;
      kill_cached_lines ();
      ctx.counters.Counters.zero_fills <- ctx.counters.Counters.zero_fills + 1;
      Cpage.add_copy page frame;
      install frame ~write_ok:write
    | Cpage.Present1 | Cpage.Present_plus | Cpage.Modified -> (
      match Cpage.local_copy page proc with
      | Some frame when not write ->
        (* Read fault with a local copy (perhaps faulted in by another
           address space): find it through the inverted table and map it. *)
        lat := !lat + config.Config.map_existing_ns;
        install frame ~write_ok:false
      | Some frame ->
        if Cpage.ncopies page = 1 then begin
          (* present1 → modified: no invalidation, no reclamation (§3.2).
             Other processors may retain read mappings to this single
             copy; their cached lines must not survive the first write. *)
          kill_cached_lines ();
          lat := !lat + config.Config.map_existing_ns;
          install frame ~write_ok:true
        end
        else begin
          (* present+ → modified keeping the local copy: invalidate every
             other translation and reclaim the other physical pages. *)
          protocol_invalidate ~spare:(Some (cmap, vpage));
          lat := !lat + free_copies ctx page ~except:frame;
          lat := !lat + config.Config.map_existing_ns;
          install frame ~write_ok:true
        end
      | None -> (
        let kind = if write then Policy.Write_fault else Policy.Read_fault in
        let decision =
          if Cpage.ncopies page = 0 then Policy.Replicate
          else ctx.policy.Policy.decide ctx.hooks ~now kind page
        in
        match decision with
        | Policy.Remote_map -> remote_map ()
        | Policy.Replicate -> (
          match alloc_frame () with
          | None -> remote_map () (* physical memory exhausted: fall back *)
          | Some frame ->
            if not write then begin
              (* Replication.  A modified source first has its write
                 mappings restricted to read-only. *)
              if page.Cpage.state = Cpage.Modified then begin
                let interrupted = shootdown Cmap.Restrict_to_read ~spare:None in
                st.Cpage.restrictions <- st.Cpage.restrictions + 1;
                page.Cpage.write_mapped <- false;
                emit (Probe.Restricted { cpage = page.Cpage.id; interrupted })
              end;
              if block_copy_into ~dst:frame then begin
                Cpage.add_copy page frame;
                st.Cpage.replications <- st.Cpage.replications + 1;
                ctx.counters.Counters.replications <- ctx.counters.Counters.replications + 1;
                emit
                  (Probe.Replicated
                     {
                       cpage = page.Cpage.id;
                       to_module = Frame.mem_module frame;
                       copies = Cpage.ncopies page;
                     });
                install frame ~write_ok:false
              end
              else begin
                (* Repeated aborts: give up on the replica, freeze the page
                   where it lives and fall back to a remote mapping.  The
                   restriction above dropped the write flag without the
                   [install] that normally recomputes the directory state,
                   so resync before the freeze (the monitor checks there). *)
                abandon_frame frame;
                Cpage.sync_state page;
                ctx.hooks.freeze ~now:(now + !lat) page;
                (match inj with
                | Some i when page.Cpage.frozen -> Platinum_sim.Inject.note_degraded_freeze i
                | Some _ | None -> ());
                remote_map ()
              end
            end
            else begin
              (* Migration: invalidate all other translations, copy, free
                 the old copies. *)
              protocol_invalidate ~spare:None;
              if block_copy_into ~dst:frame then begin
                lat := !lat + free_copies ctx page ~except:frame;
                Cpage.add_copy page frame;
                st.Cpage.migrations <- st.Cpage.migrations + 1;
                ctx.counters.Counters.migrations <- ctx.counters.Counters.migrations + 1;
                emit (Probe.Migrated { cpage = page.Cpage.id; to_module = Frame.mem_module frame });
                install frame ~write_ok:true
              end
              else begin
                (* Repeated aborts: abandon the move, collapse to the copy
                   the page already has, freeze it in place and map that.
                   The invalidation above removed every mapping, so the
                   write flag and directory state must be resynced before
                   the freeze (the monitor checks there). *)
                abandon_frame frame;
                let kept = choose_copy page in
                lat := !lat + free_copies ctx page ~except:kept;
                page.Cpage.write_mapped <- false;
                Cpage.sync_state page;
                ctx.hooks.freeze ~now:(now + !lat) page;
                (match inj with
                | Some i when page.Cpage.frozen -> Platinum_sim.Inject.note_degraded_freeze i
                | Some _ | None -> ());
                remote_map ()
              end
            end)))
  in
  ctx.counters.Counters.fault_ns <- ctx.counters.Counters.fault_ns + !lat;
  (result, !lat)
