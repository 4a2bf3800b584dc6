module Coherent = Platinum_core.Coherent
module Cpage = Platinum_core.Cpage
module Machine = Platinum_machine.Machine
module Memmodule = Platinum_machine.Memmodule
module Time_ns = Platinum_sim.Time_ns

type page_row = {
  label : string;
  read_faults : int;
  write_faults : int;
  replications : int;
  migrations : int;
  invalidations : int;
  remote_maps : int;
  fault_wait_ms : float;
  frozen_now : bool;
  was_frozen : bool;
}

type t = {
  elapsed : Time_ns.t;
  pages : page_row list;
  frozen_pages : int;
  ever_frozen_pages : int;
  module_utilization : float array;
  ipis : int;
}

let row_of_page (p : Cpage.t) =
  let s = p.Cpage.stats in
  {
    label = (if p.Cpage.label = "" then Printf.sprintf "cpage-%d" p.Cpage.id else p.Cpage.label);
    read_faults = s.Cpage.read_faults;
    write_faults = s.Cpage.write_faults;
    replications = s.Cpage.replications;
    migrations = s.Cpage.migrations;
    invalidations = s.Cpage.invalidations;
    remote_maps = s.Cpage.remote_maps;
    fault_wait_ms = Time_ns.to_float_ms s.Cpage.fault_wait_ns;
    frozen_now = p.Cpage.frozen;
    was_frozen = s.Cpage.was_frozen;
  }

let faults r = r.read_faults + r.write_faults

let of_run coh ~elapsed =
  let machine = Coherent.machine coh in
  let rows = ref [] in
  Coherent.iter_cpages (fun p -> rows := row_of_page p :: !rows) coh;
  let pages = List.sort (fun a b -> compare (faults b) (faults a)) !rows in
  let modules = Machine.modules machine in
  {
    elapsed;
    pages;
    frozen_pages = List.length (List.filter (fun r -> r.frozen_now) pages);
    ever_frozen_pages = List.length (List.filter (fun r -> r.was_frozen) pages);
    module_utilization =
      Array.map (fun m -> Memmodule.utilization m ~horizon:elapsed) modules;
    ipis = Machine.ipis_sent machine;
  }

let find t ~label_prefix =
  List.filter
    (fun r ->
      String.length r.label >= String.length label_prefix
      && String.sub r.label 0 (String.length label_prefix) = label_prefix)
    t.pages

(* Stdlib's [max] on floats, typed so it compiles to no C call. *)
let fmax (a : float) b = if a >= b then a else b

let pp ?(top = 20) fmt t =
  Format.fprintf fmt "@[<v>=== PLATINUM post-mortem memory report ===@,";
  Format.fprintf fmt "elapsed: %a; %d coherent pages; %d frozen (%d ever); %d IPIs@,"
    Time_ns.pp t.elapsed (List.length t.pages) t.frozen_pages t.ever_frozen_pages t.ipis;
  let util = Array.to_list t.module_utilization in
  let avg = List.fold_left ( +. ) 0.0 util /. float_of_int (Int.max 1 (List.length util)) in
  let peak = List.fold_left fmax 0.0 util in
  Format.fprintf fmt "memory modules: %.1f%% mean utilization, %.1f%% peak@," (100. *. avg)
    (100. *. peak);
  Format.fprintf fmt "%-26s %9s %9s %6s %6s %6s %6s %9s %s@," "page" "rd-fault" "wr-fault" "repl"
    "migr" "inval" "rmap" "wait(ms)" "frozen";
  let interesting r = faults r > 0 || r.was_frozen in
  let shown = ref 0 in
  List.iter
    (fun r ->
      if interesting r && (!shown < top || r.was_frozen) then begin
        incr shown;
        Format.fprintf fmt "%-26s %9d %9d %6d %6d %6d %6d %9.2f %s@," r.label r.read_faults
          r.write_faults r.replications r.migrations r.invalidations r.remote_maps
          r.fault_wait_ms
          (if r.frozen_now then "FROZEN" else if r.was_frozen then "thawed" else "-")
      end)
    t.pages;
  let hidden = List.length (List.filter interesting t.pages) - !shown in
  if hidden > 0 then Format.fprintf fmt "(%d more pages with faults not shown)@," hidden;
  Format.fprintf fmt "@]"
