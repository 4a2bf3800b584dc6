module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine

type edge = {
  from_state : Cpage.state;
  to_state : Cpage.state;
  trigger : string;
}

(* A tiny machine is enough; every scenario uses a fresh instance so
   scenarios cannot interfere. *)
let mk () =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:8 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let coh =
    Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
      ~frames_per_module:8 ()
  in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  (coh, cm, page)

let far = 1_000_000_000 (* well outside t1 *)

(* Each scenario: a setup bringing the page to [from_state], then the
   triggering access; we record the state before and after the trigger. *)
let scenarios :
    (string * ((Coherent.t * Cmap.t * Cpage.t) -> unit) * ((Coherent.t * Cmap.t * Cpage.t) -> unit))
    list =
  let read ?(now = 0) proc (coh, cm, _) =
    ignore (Coherent.submit coh ~now ~proc ~cmap:cm (Memtxn.Read { vaddr = 0 }))
  in
  let write ?(now = 0) proc value (coh, cm, _) =
    ignore (Coherent.submit coh ~now ~proc ~cmap:cm (Memtxn.Write { vaddr = 0; value }))
  in
  let nothing _ = () in
  [
    ("read miss (zero fill)", nothing, read 0);
    ("write miss (zero fill)", nothing, write 0 1);
    ("read miss (replicate)", read 0, read ~now:far 1);
    ( "read miss (replicate, restrict writer)",
      write 0 1,
      read ~now:far 1 );
    ("write hit upgrade (no invalidation)", read 0, write ~now:far 0 1);
    ("write miss (migrate)", write 0 1, write ~now:far 1 2);
    ( "write miss (invalidate replicas)",
      (fun env ->
        write 0 1 env;
        read ~now:far 1 env;
        read ~now:(far + far) 2 env),
      write ~now:(3 * far) 0 2 );
    ( "read miss on frozen page (remote map)",
      (fun env ->
        (* freeze: write, replicate, invalidate, refault within t1 *)
        write 0 1 env;
        read ~now:far 1 env;
        write ~now:(2 * far) 0 2 env;
        read ~now:((2 * far) + 1_000) 1 env),
      read ~now:((2 * far) + 2_000) 2 );
    ( "defrost daemon thaw",
      (fun ((coh, _, page) as env) ->
        write 0 1 env;
        read ~now:far 1 env;
        write ~now:(2 * far) 0 2 env;
        read ~now:((2 * far) + 1_000) 1 env;
        assert page.Cpage.frozen;
        ignore coh),
      fun (coh, _, _) -> Coherent.thaw_all coh ~now:(3 * far) );
    ( "further replication (present+)",
      (fun env ->
        read 0 env;
        read ~now:far 1 env),
      read ~now:(2 * far) 2 );
  ]

let edges () =
  List.filter_map
    (fun (trigger, setup, action) ->
      let ((_, _, page) as env) = mk () in
      setup env;
      let from_state = Cpage.state page in
      action env;
      let to_state = Cpage.state page in
      Some { from_state; to_state; trigger })
    scenarios

let pp_edge fmt e =
  Format.fprintf fmt "%-9s --[%s]--> %s"
    (Cpage.state_to_string e.from_state)
    e.trigger
    (Cpage.state_to_string e.to_state)

let to_dot edges =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph platinum_protocol {\n  rankdir=LR;\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"];\n"
           (Cpage.state_to_string e.from_state)
           (Cpage.state_to_string e.to_state)
           e.trigger))
    edges;
  Buffer.add_string b "}\n";
  Buffer.contents b
