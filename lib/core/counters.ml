type t = {
  mutable read_faults : int;
  mutable write_faults : int;
  mutable vm_faults : int;
  mutable replications : int;
  mutable migrations : int;
  mutable remote_maps : int;
  mutable freezes : int;
  mutable thaws : int;
  mutable shootdowns : int;
  mutable messages : int;
  mutable interrupts : int;
  mutable deferred_updates : int;
  mutable pages_freed : int;
  mutable zero_fills : int;
  mutable atc_reloads : int;
  mutable fault_ns : int;
  mutable copy_ns : int;
}

let create () =
  {
    read_faults = 0;
    write_faults = 0;
    vm_faults = 0;
    replications = 0;
    migrations = 0;
    remote_maps = 0;
    freezes = 0;
    thaws = 0;
    shootdowns = 0;
    messages = 0;
    interrupts = 0;
    deferred_updates = 0;
    pages_freed = 0;
    zero_fills = 0;
    atc_reloads = 0;
    fault_ns = 0;
    copy_ns = 0;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>faults: %d read, %d write, %d vm@,\
     actions: %d replications, %d migrations, %d remote maps@,\
     policy: %d freezes, %d thaws@,\
     shootdowns: %d (%d messages, %d interrupts, %d deferred), %d pages freed@,\
     time: %a in fault handler, %a copying@]"
    t.read_faults t.write_faults t.vm_faults t.replications t.migrations t.remote_maps t.freezes
    t.thaws t.shootdowns t.messages t.interrupts t.deferred_updates t.pages_freed
    Platinum_sim.Time_ns.pp t.fault_ns Platinum_sim.Time_ns.pp t.copy_ns
