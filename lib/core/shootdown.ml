module Machine = Platinum_machine.Machine
module Procset = Platinum_machine.Procset

type outcome = {
  latency : int;
  interrupted : int;
  deferred : int;
}

(* Test-only fault-injection knob, set and cleared by single-domain
   tests/the model checker's mutation mode.  Never read on the
   sharded-engine path either: Shard handlers reach Shootdown only through
   per-cell Machine instances the grid pool keeps domain-private, and no
   test flips this while a pool is live.
   lint: allow toplevel-state *)
let test_skip_refmask_clear = ref false

let run ?monitor ~machine ~counters ~atcs ~now ~initiator ~mappings ~directive ~spare () =
  let config = Machine.config machine in
  let t = ref now in
  let to_interrupt = ref Procset.empty in
  let deferred = ref 0 in
  (* (cmap, vpage, targets) actually processed — kept only when the
     sanitizer will verify completion below. *)
  let processed = ref [] in
  let apply_one (cmap : Cmap.t) vpage proc =
    let pmap = Cmap.pmap cmap ~proc in
    (match directive with
    | Cmap.Restrict_to_read -> Pmap.restrict pmap ~vpage
    | Cmap.Invalidate ->
      Pmap.remove pmap ~vpage;
      (* §7 local caches are kept coherent in software: losing the
         translation also drops any cached lines of the page. *)
      let pw = config.Platinum_machine.Config.page_words in
      Machine.invalidate_cached_range machine ~proc ~addr:(vpage * pw) ~words:pw);
    (* The initiator applies its own update directly; remote holders are
       either interrupted now or will drain the queue on activation. *)
    if proc <> initiator then
      if Atc.is_active atcs.(proc) ~aspace:(Cmap.aspace cmap) then
        to_interrupt := Procset.add proc !to_interrupt
      else incr deferred
  in
  List.iter
    (fun ((cmap : Cmap.t), vpage) ->
      match Cmap.find cmap ~vpage with
      | None -> ()
      | Some centry ->
        let is_spared p =
          match spare with
          | Some (sc, sv) -> sc == cmap && sv = vpage && p = initiator
          | None -> false
        in
        let targets = Procset.fold (fun p acc -> if is_spared p then acc else Procset.add p acc)
            centry.Cmap.refmask Procset.empty
        in
        if not (Procset.is_empty targets) then begin
          t := !t + config.Platinum_machine.Config.shootdown_post_ns;
          counters.Counters.messages <- counters.Counters.messages + 1;
          Procset.iter (fun p -> apply_one cmap vpage p) targets;
          (match directive with
          | Cmap.Invalidate ->
            if not !test_skip_refmask_clear then
              centry.Cmap.refmask <- Procset.diff centry.Cmap.refmask targets
          | Cmap.Restrict_to_read -> ());
          if monitor <> None then processed := (cmap, vpage, targets) :: !processed
        end)
    mappings;
  (* Interrupt each target once, serially; wait for all acknowledgements.
     Under fault injection an IPI may be dropped or delayed: the initiator
     arms an ack timeout (exponential backoff) and re-sends, bounded by the
     plane's retry cap — the adversary forces delivery on the final attempt,
     so the shootdown always completes and the refmask/Pmap updates above
     are never left partially applied.  Retries extend only that target's
     ack timeline; with no plane attached the path is byte-identical to the
     fault-free model. *)
  let to_interrupt = Procset.remove initiator !to_interrupt in
  let inj = Machine.inject machine in
  let last_ack = ref !t in
  Procset.iter
    (fun p ->
      let ipi_ns =
        Platinum_machine.Xbar.ipi_ns config
          ~hop:(Platinum_machine.Config.hop config ~src:initiator ~dst:p)
      in
      t := !t + ipi_ns;
      Machine.count_ipi machine;
      let busy = Machine.proc_busy_until machine ~proc:p in
      let ack =
        match inj with
        | None -> Int.max !t busy + config.Platinum_machine.Config.sync_handler_ns
        | Some inj ->
          let base_ack = Int.max !t busy + config.Platinum_machine.Config.sync_handler_ns in
          let rec attempt k send_done =
            match Platinum_sim.Inject.ipi_fault inj ~attempt:k with
            | `Drop ->
              (* Lost: wait out the ack timeout, then re-send. *)
              Platinum_sim.Inject.note_shootdown_retry inj;
              Machine.count_ipi machine;
              attempt (k + 1)
                (send_done + Platinum_sim.Inject.ack_timeout ~attempt:k + ipi_ns)
            | `Deliver -> Int.max send_done busy + config.Platinum_machine.Config.sync_handler_ns
            | `Delay d ->
              Int.max (send_done + d) busy + config.Platinum_machine.Config.sync_handler_ns
          in
          let ack = attempt 0 !t in
          if ack > base_ack then Platinum_sim.Inject.note_recovery inj (ack - base_ack);
          ack
      in
      Machine.add_penalty machine ~proc:p config.Platinum_machine.Config.sync_handler_ns;
      if ack > !last_ack then last_ack := ack)
    to_interrupt;
  let finish = Int.max !t !last_ack in
  (* The sanitizer's stale-translation check (the NUMA analogue of a TLB
     consistency check): once the shootdown has completed, no targeted
     processor may retain a usable translation — an Invalidate leaves no
     Pmap entry behind, a Restrict leaves no write permission behind.  The
     ATC caches by stamping the Pmap entry ({!Atc}), so the Pmap is the
     one place a translation can survive. *)
  (match monitor with
  | None -> ()
  | Some m ->
    List.iter
      (fun (cmap, vpage, targets) ->
        let aspace = Cmap.aspace cmap in
        Procset.iter
          (fun p ->
            match directive with
            | Cmap.Invalidate ->
              if Pmap.mem (Cmap.pmap cmap ~proc:p) ~vpage then
                Check.raise_violation m ~now:finish
                  (Check.fault ~inv:"stale-translation" ~cite:"§3.1"
                     "proc %d retains a Pmap entry for aspace %d vpage %d after an \
                      invalidating shootdown"
                     p aspace vpage)
            | Cmap.Restrict_to_read ->
              if Pmap.write_ok (Cmap.pmap cmap ~proc:p) ~vpage then
                Check.raise_violation m ~now:finish
                  (Check.fault ~inv:"stale-translation" ~cite:"§3.1"
                     "proc %d retains write permission on aspace %d vpage %d after a \
                      restricting shootdown"
                     p aspace vpage))
          targets)
      !processed);
  let n_int = Procset.cardinal to_interrupt in
  counters.Counters.shootdowns <- counters.Counters.shootdowns + 1;
  counters.Counters.interrupts <- counters.Counters.interrupts + n_int;
  counters.Counters.deferred_updates <- counters.Counters.deferred_updates + !deferred;
  { latency = finish - now; interrupted = n_int; deferred = !deferred }
