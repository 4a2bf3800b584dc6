module Engine = Platinum_sim.Engine

type mode =
  | Periodic
  | Adaptive of {
      initial_t2 : Platinum_sim.Time_ns.t;
      max_t2 : Platinum_sim.Time_ns.t;
      refreeze_window : Platinum_sim.Time_ns.t;
    }

let default_adaptive =
  Adaptive { initial_t2 = 100_000_000; max_t2 = 5_000_000_000; refreeze_window = 50_000_000 }

let install_periodic coh engine =
  let period = (Coherent.config coh).Platinum_machine.Config.t2_defrost_period in
  Engine.every engine ~daemon:true ~period (fun () ->
      Coherent.thaw_all coh ~now:(Engine.now engine);
      true)

let install_adaptive coh engine ~initial_t2 ~max_t2 ~refreeze_window =
  let on_freeze ~now (page : Cpage.t) =
    (* Back off when the previous thaw didn't stick. *)
    if page.Cpage.adaptive_t2 = 0 then page.Cpage.adaptive_t2 <- initial_t2
    else if now - page.Cpage.last_thaw_at <= refreeze_window then
      page.Cpage.adaptive_t2 <- min (2 * page.Cpage.adaptive_t2) max_t2;
    let frozen_at = now in
    Engine.schedule_after engine ~daemon:true ~delay:page.Cpage.adaptive_t2 (fun () ->
        (* Only thaw the freeze we were armed for: the page may have
           thawed and refrozen since, with its own later wake-up. *)
        if page.Cpage.frozen && page.Cpage.frozen_at = frozen_at then
          Coherent.thaw_page coh ~now:(Engine.now engine) ~by_daemon:true page)
  in
  Coherent.set_freeze_hook coh (Some on_freeze)

let install ?(mode = Periodic) coh engine =
  if Policy.uses_defrost (Coherent.policy coh) then
    match mode with
    | Periodic -> install_periodic coh engine
    | Adaptive { initial_t2; max_t2; refreeze_window } ->
      install_adaptive coh engine ~initial_t2 ~max_t2 ~refreeze_window
