(* Bounded model checker for the PLATINUM coherence protocol.

   Drives the *real* [Coherent] system (not an abstract model): every
   transition of the exploration replays a concrete operation sequence
   from scratch on a fresh machine, with the invariant monitor armed, and
   dedups reached states by a canonical fingerprint of all
   behavior-affecting state.

   Soundness of the fingerprint: with every operation issued at [now = 0],
   the only time-dependent protocol input is whether a page's
   [last_protocol_inval] is [never_invalidated] or [0] (the policy's t1
   freeze window), which the fingerprint captures as a two-valued bucket.
   Timing and penalties never feed back into protocol decisions, and the
   only history a policy reads (Bolosky's write flag and migration count,
   Competitive's miss count) enters the fingerprint bounded, through
   [Policy.page_input].  Frames within a module are interchangeable (data
   is always zero-filled or blitted), so only the memory module of each
   copy matters.  Values written are drawn from the bounded set
   [proc + 1], so the data component of the state space is finite too. *)

module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Procset = Platinum_machine.Procset
module Frame = Platinum_phys.Frame
module Engine = Platinum_sim.Engine
module Check = Platinum_core.Check
module Cpage = Platinum_core.Cpage
module Cmap = Platinum_core.Cmap
module Pmap = Platinum_core.Pmap
module Atc = Platinum_core.Atc
module Rights = Platinum_core.Rights
module Policy = Platinum_core.Policy
module Coherent = Platinum_core.Coherent
module Memtxn = Platinum_core.Memtxn
module Shootdown = Platinum_core.Shootdown

type op =
  | Read of { proc : int; page : int }
  | Write of { proc : int; page : int }
      (** writes the distinguishing value [proc + 1] to word 0 *)
  | Freeze of { page : int }  (** [Coherent.Freeze]: collapse + freeze *)
  | Thaw of { page : int }  (** [Coherent.Thaw] *)
  | Daemon_thaw  (** what the defrost daemon does: thaw every frozen page *)

let pp_op ppf = function
  | Read { proc; page } -> Format.fprintf ppf "R%d(p%d)" proc page
  | Write { proc; page } -> Format.fprintf ppf "W%d(p%d)" proc page
  | Freeze { page } -> Format.fprintf ppf "freeze(p%d)" page
  | Thaw { page } -> Format.fprintf ppf "thaw(p%d)" page
  | Daemon_thaw -> Format.fprintf ppf "daemon"

let pp_ops ppf ops =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_op ppf ops

let ops_to_string ops = Format.asprintf "%a" pp_ops ops

(* The full alphabet for a configuration: every read and write by every
   processor of every page, plus explicit freeze/thaw advice and the
   defrost daemon's sweep.  Migration and replication are not separate
   letters — the policy takes them on read/write misses. *)
let catalogue ~nprocs ~npages =
  let ops = ref [ Daemon_thaw ] in
  for page = npages - 1 downto 0 do
    ops := Thaw { page } :: !ops;
    ops := Freeze { page } :: !ops;
    for proc = nprocs - 1 downto 0 do
      ops := Write { proc; page } :: !ops;
      ops := Read { proc; page } :: !ops
    done
  done;
  !ops

(* --- one concrete machine under the monitor --- *)

type sys = {
  coh : Coherent.t;
  policy : Policy.t;
  cm : Cmap.t;
  nprocs : int;
  npages : int;
  page_words : int;
  expected : int array;  (* the sequential-consistency oracle, per page *)
  mutable events : (int * string) list;  (* the probe's (cpage, event), newest first *)
}

let page_words = 4
let frames_per_module = 8

(* Past this many distinct states an exploration stops and reports
   itself truncated. *)
let max_states = 200_000

(* What [make_sys]'s probe records of each event: its page and its name. *)
let event = function
  | Platinum_core.Probe.Read_fault { cpage; _ } -> (cpage, "read-fault")
  | Write_fault { cpage; _ } -> (cpage, "write-fault")
  | Replicated { cpage; _ } -> (cpage, "replicate")
  | Migrated { cpage; _ } -> (cpage, "migrate")
  | Remote_mapped { cpage; _ } -> (cpage, "remote-map")
  | Invalidated { cpage; _ } -> (cpage, "invalidate")
  | Restricted { cpage; _ } -> (cpage, "restrict")
  | Frozen { cpage } -> (cpage, "freeze")
  | Thawed { cpage; _ } -> (cpage, "thaw")

(* A fresh [Policy.t] per system: Competitive's miss table is state. *)
let make_sys ~policy ~nprocs ~npages =
  let config = Config.butterfly_plus ~nprocs ~page_words () in
  let policy =
    match Policy.of_string ~t1:config.Config.t1_freeze_window policy with
    | Ok p -> p
    | Error e -> invalid_arg ("Mc: " ^ e)
  in
  let machine = Machine.create config in
  let engine = Engine.create () in
  let coh = Coherent.create machine ~engine ~policy ~frames_per_module () in
  (* The monitor is always armed under the model checker, independent of
     PLATINUM_CHECK: checking is the point. *)
  Coherent.set_monitor coh (Some (Check.create_monitor ()));
  let cm = Coherent.new_aspace coh in
  for vpage = 0 to npages - 1 do
    let page = Coherent.new_cpage coh ~label:(Printf.sprintf "mc%d" vpage) () in
    Coherent.bind coh cm ~vpage page Rights.Read_write
  done;
  let expected = Array.make npages 0 in
  let sys = { coh; policy; cm; nprocs; npages; page_words; expected; events = [] } in
  (* The probe only records, to name the edges: it never steers. *)
  Coherent.set_probe coh (Some (fun ~now:_ ev -> sys.events <- event ev :: sys.events));
  sys

exception Sc_violation of { op : op; got : int; want : int }

let apply sys op =
  let submit proc txn = ignore (Coherent.submit sys.coh ~now:0 ~proc ~cmap:sys.cm txn) in
  let vaddr page = page * sys.page_words in
  match op with
  | Read { proc; page } ->
    submit proc (Memtxn.Read { vaddr = vaddr page });
    let v = !(Coherent.fp_value_cell sys.coh) in
    if v <> sys.expected.(page) then
      raise (Sc_violation { op; got = v; want = sys.expected.(page) })
  | Write { proc; page } ->
    submit proc (Memtxn.Write { vaddr = vaddr page; value = proc + 1 });
    sys.expected.(page) <- proc + 1
  | Freeze { page } ->
    ignore (Coherent.advise sys.coh ~now:0 ~proc:0 ~cmap:sys.cm ~vpage:page Coherent.Freeze)
  | Thaw { page } ->
    ignore (Coherent.advise sys.coh ~now:0 ~proc:0 ~cmap:sys.cm ~vpage:page Coherent.Thaw)
  | Daemon_thaw -> Coherent.thaw_all sys.coh ~now:0

(* --- Figure 4's edges: a page's (state, frozen) pair before and after a letter --- *)

type edge = { from : Cpage.state * bool; to_ : Cpage.state * bool; trigger : string }

let kind = function
  | Read _ -> "read"
  | Write _ -> "write"
  | Freeze _ -> "freeze advice"
  | Thaw _ -> "thaw advice"
  | Daemon_thaw -> "daemon"

(* Apply [op]: the edge of each page that saw a probe event or changed
   its pair, named by the letter and the page's events in order. *)
let step sys op =
  let page vpage = (Option.get (Cmap.find sys.cm ~vpage)).Cmap.cpage in
  let pair vpage = (Cpage.state (page vpage), (page vpage).Cpage.frozen) in
  let before = Array.init sys.npages pair in
  sys.events <- [];
  apply sys op;
  List.concat_map
    (fun vpage ->
      let from = before.(vpage) and to_ = pair vpage and id = (page vpage).Cpage.id in
      match List.rev_map snd (List.filter (fun (c, _) -> c = id) sys.events) with
      | [] when from = to_ -> []
      | [] -> [ { from; to_; trigger = kind op } ]
      | evs -> [ { from; to_; trigger = kind op ^ ": " ^ String.concat ", " evs } ])
    (List.init sys.npages Fun.id)

let label (state, frozen) = Cpage.state_to_string state ^ if frozen then "/frozen" else ""
let pp_edge fmt e = Format.fprintf fmt "%s --[%s]--> %s" (label e.from) e.trigger (label e.to_)

let to_dot edges =
  let line e = Printf.sprintf "  %S -> %S [label=%S];\n" (label e.from) (label e.to_) e.trigger in
  "digraph platinum_protocol {\n  rankdir=LR;\n" ^ String.concat "" (List.map line edges) ^ "}\n"

(* --- canonical state fingerprint --- *)

let procset_bits ps = Procset.fold (fun p acc -> acc lor (1 lsl p)) ps 0

let fingerprint sys =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  for vpage = 0 to sys.npages - 1 do
    match Cmap.find sys.cm ~vpage with
    | None -> add "p%d:unbound;" vpage
    | Some ce ->
      let page = ce.Cmap.cpage in
      add "p%d:%s,f%b,w%b,lpi%d,pi%d,rm%x,cm%x[" vpage
        (Cpage.state_to_string (Cpage.state page))
        page.Cpage.frozen page.Cpage.write_mapped
        (if page.Cpage.last_protocol_inval = Cpage.never_invalidated then 0 else 1)
        (Policy.page_input sys.policy page)
        (procset_bits ce.Cmap.refmask)
        (procset_bits page.Cpage.copy_mask);
      (* Copies sorted by module; only the module and the data matter. *)
      let copies =
        Cpage.copies page
        |> List.map (fun f ->
               let words = ref [] in
               for i = sys.page_words - 1 downto 0 do
                 words := Frame.get f i :: !words
               done;
               (Frame.mem_module f, !words))
        |> List.sort compare
      in
      List.iter
        (fun (m, words) ->
          add "m%d:" m;
          List.iter (fun w -> add "%d," w) words)
        copies;
      add "]";
      (* Per-processor translations. *)
      for proc = 0 to sys.nprocs - 1 do
        match Pmap.find (Cmap.pmap sys.cm ~proc) ~vpage with
        | None -> ()
        | Some e ->
          add "t%d:m%dw%b" proc (Frame.mem_module e.Pmap.frame) e.Pmap.write_ok;
          if Atc.holds (Coherent.atc sys.coh ~proc) e then add "a%dw%b" proc e.Pmap.write_ok
      done;
      add ";"
  done;
  for proc = 0 to sys.nprocs - 1 do
    add "A%d:%d;" proc
      (match Atc.active_aspace (Coherent.atc sys.coh ~proc) with None -> -1 | Some a -> a)
  done;
  Array.iter (fun v -> add "e%d;" v) sys.expected;
  Buffer.contents b

(* --- exploration --- *)

type counterexample = {
  cx_ops : op list;  (** the replayable operation prefix, oldest first *)
  cx_message : string;
}

type report = {
  policy : string;
  nprocs : int;
  npages : int;
  depth : int;
  states : int;  (** distinct reachable states (including the initial one) *)
  transitions : int;  (** transitions attempted (replays) *)
  states_at_depth : int array;  (** new states first reached at depth d *)
  violations : counterexample list;  (** capped at [max_counterexamples] *)
  total_violations : int;
  truncated : bool;  (** hit [max_states] before exhausting the space *)
  edges : edge list;  (** sorted, deduplicated *)
}

let max_counterexamples = 5

(* Replay [ops] on a fresh system.  [Ok (fp, edges)] gives the resulting
   fingerprint and the last letter's edges; [Error message] reports the
   first monitor violation or sequential-consistency failure. *)
let replay_edges ~policy ~nprocs ~npages ops =
  let sys = make_sys ~policy ~nprocs ~npages in
  try
    let edges = List.fold_left (fun _ op -> step sys op) [] ops in
    Ok (fingerprint sys, edges)
  with
  | Check.Violation v -> Error (Check.violation_message v)
  | (Frame.Shared_write _ | Frame.Unbacked_read _) as e -> Error (Printexc.to_string e)
  | Sc_violation { op; got; want } ->
    Error
      (Format.asprintf
         "sequential consistency: %a returned %d, last write was %d" pp_op op got want)

let replay ~policy ~nprocs ~npages ops = Result.map fst (replay_edges ~policy ~nprocs ~npages ops)

let explore ?(mutate = false) ~policy ~nprocs ~npages ~depth () =
  let run () =
    let alphabet = catalogue ~nprocs ~npages in
    let visited = Hashtbl.create 4096 in
    let edges = Hashtbl.create 64 in
    let transitions = ref 0 in
    let violations = ref [] in
    let total_violations = ref 0 in
    let truncated = ref false in
    let states_at_depth = Array.make (depth + 1) 0 in
    let root =
      match replay ~policy ~nprocs ~npages [] with
      | Ok fp -> fp
      | Error m -> failwith ("model checker: initial state violates invariants: " ^ m)
    in
    Hashtbl.replace visited root ();
    states_at_depth.(0) <- 1;
    (* BFS frontier: (reversed op prefix) per state first reached there. *)
    let frontier = ref [ [] ] in
    (try
       for d = 1 to depth do
         let next = ref [] in
         List.iter
           (fun rev_prefix ->
             List.iter
               (fun op ->
                 if Hashtbl.length visited >= max_states then begin
                   truncated := true;
                   raise Exit
                 end;
                 incr transitions;
                 let rev_ops = op :: rev_prefix in
                 match replay_edges ~policy ~nprocs ~npages (List.rev rev_ops) with
                 | Ok (fp, taken) ->
                   List.iter (fun e -> Hashtbl.replace edges e ()) taken;
                   if not (Hashtbl.mem visited fp) then begin
                     Hashtbl.replace visited fp ();
                     states_at_depth.(d) <- states_at_depth.(d) + 1;
                     next := rev_ops :: !next
                   end
                 | Error cx_message ->
                   incr total_violations;
                   if List.length !violations < max_counterexamples then
                     violations := { cx_ops = List.rev rev_ops; cx_message } :: !violations)
               alphabet)
           !frontier;
         frontier := !next
       done
     with Exit -> ());
    {
      policy;
      nprocs;
      npages;
      depth;
      states = Hashtbl.length visited;
      transitions = !transitions;
      states_at_depth;
      violations = List.rev !violations;
      total_violations = !total_violations;
      truncated = !truncated;
      edges = List.sort compare (List.of_seq (Hashtbl.to_seq_keys edges));
    }
  in
  if mutate then
    (* Fault injection: every replay runs with the broken write-invalidate
       transition (refmask not cleared).  The checker must catch it. *)
    Fun.protect
      ~finally:(fun () -> Shootdown.test_skip_refmask_clear := false)
      (fun () ->
        Shootdown.test_skip_refmask_clear := true;
        run ())
  else run ()

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>model check: %s, %d procs, %d pages, depth %d%s@,\
     reachable states: %d  (transitions tried: %d)@,\
     protocol transitions (Figure 4 edges): %d@,\
     new states by depth: %a@,\
     violations: %d@]"
    r.policy r.nprocs r.npages r.depth
    (if r.truncated then " (TRUNCATED at state cap)" else "")
    r.states r.transitions (List.length r.edges)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       Format.pp_print_int)
    (Array.to_list r.states_at_depth)
    r.total_violations;
  List.iter
    (fun cx ->
      Format.fprintf ppf "@,  under %s, after [%a]:@,    %s" r.policy pp_ops cx.cx_ops
        cx.cx_message)
    r.violations
