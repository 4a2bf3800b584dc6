module Engine = Platinum_sim.Engine
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Defrost = Platinum_core.Defrost
module Addr_space = Platinum_vm.Addr_space
module Platsys = Platinum_kernel.Platsys
module Kernel = Platinum_kernel.Kernel
module Report = Platinum_stats.Report

type setup = {
  engine : Engine.t;
  machine : Machine.t;
  coherent : Coherent.t;
  aspace : Addr_space.t;
  platsys : Platsys.t;
  kernel : Kernel.t;
}

let make ?config ?policy ?defrost ?(frames_per_module = 1024) ?inject ?coalesce () =
  let config = match config with Some c -> c | None -> Config.butterfly_plus () in
  let policy =
    match policy with
    | Some p -> p
    | None ->
      Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let engine = Engine.create () in
  let machine = Machine.create config in
  (match inject with
  | None -> ()
  | Some cfg -> Machine.set_inject machine (Some (Platinum_sim.Inject.create cfg)));
  let coherent = Coherent.create machine ~engine ~policy ~frames_per_module () in
  let aspace = Addr_space.create coherent in
  let platsys = Platsys.create coherent aspace in
  let kernel =
    Kernel.create ?coalesce ~engine ~machine ~memsys:(Platsys.memsys platsys) ()
  in
  Defrost.install ?mode:defrost coherent engine;
  { engine; machine; coherent; aspace; platsys; kernel }

type result = {
  elapsed : Platinum_sim.Time_ns.t;
  report : Report.t;
  setup : setup;
}

let run setup ~main =
  let elapsed = Kernel.run setup.kernel ~main in
  (match Coherent.check_invariants setup.coherent with
  | Ok () -> ()
  | Error e -> failwith ("coherence invariant violated after run: " ^ e));
  { elapsed; report = Report.of_run setup.coherent ~elapsed; setup }

let time ?config ?policy ?defrost ?frames_per_module ?inject ?coalesce main =
  run (make ?config ?policy ?defrost ?frames_per_module ?inject ?coalesce ()) ~main

module Uma_sys = Platinum_cache.Uma_sys

type uma_result = {
  uma_elapsed : Platinum_sim.Time_ns.t;
  uma : Uma_sys.t;
}

let time_uma ?(nprocs = 16) ?(page_words = 1024) main =
  let config = Config.butterfly_plus ~nprocs ~page_words () in
  let engine = Engine.create () in
  let machine = Machine.create config in
  let uma = Uma_sys.create ~machine ~params:Uma_sys.sequent ~page_words in
  let kernel = Kernel.create ~engine ~machine ~memsys:(Uma_sys.memsys uma) () in
  let uma_elapsed = Kernel.run kernel ~main in
  { uma_elapsed; uma }

(* --- one program on either sequential machine --- *)

module Api = Platinum_kernel.Api

type machine = Platinum of setup | Uma of { nprocs : int; page_words : int }
type program_result = { timed : Platinum_sim.Time_ns.t; verified : bool }

let run_program ~seed machine (p : Platinum_kernel.Program.t) =
  let timed = ref 0 and words = ref [||] in
  let main nodes () =
    let streams = Platinum_kernel.Program.streams ~seed nodes and pw = Api.page_words () in
    let base = Api.alloc_pages nodes in
    let row r = base + (r * pw) in
    List.iter (fun (r, w) -> Api.block_write (row r) w) p.image;
    List.iter (fun r -> Api.advise (row r) pw (Home r)) (List.init nodes Fun.id);
    let t0 = Api.now () in
    Api.spawn_join_all ~procs:(List.init nodes Fun.id)
      (List.init nodes (fun i _ -> p.body ~node:i ~row ~rng:(fst streams.(i))));
    timed := Api.now () - t0;
    words := Array.init nodes (fun r -> Api.block_read (row r) pw)
  in
  (match machine with
  | Platinum s ->
    (* the control region, below the default heap *)
    let npages = Platinum_kernel.Program.data_base_page in
    let obj = Platinum_vm.Memobj.create s.coherent ~name:"control" ~npages in
    Addr_space.map s.aspace ~at_page:0 ~obj ~rights:Read_write ();
    ignore (run s ~main:(main (Machine.nprocs s.machine)))
  | Uma { nprocs; page_words } -> ignore (time_uma ~nprocs ~page_words (main nprocs)));
  { timed = !timed; verified = p.verify (Array.get !words) }
