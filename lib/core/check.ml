module Procset = Platinum_machine.Procset
module Frame = Platinum_phys.Frame
module Ring = Platinum_sim.Ring

(* --- page views --- *)

type page_view = {
  pv_id : int;
  pv_copies : Frame.t list;
  pv_copy_mask : Procset.t;
  pv_write_mapped : bool;
  pv_frozen : bool;
}

(* --- structured violations --- *)

type fault = {
  inv : string;
  cite : string;
  detail : string;
  cpage : int option;
}

let fault ~inv ~cite fmt =
  Printf.ksprintf (fun detail -> { inv; cite; detail; cpage = None }) fmt

let render f =
  Printf.sprintf "%s%s (%s): %s"
    (match f.cpage with Some id -> Printf.sprintf "cpage %d: " id | None -> "")
    f.inv f.cite f.detail

(* --- the page-level invariant catalogue --- *)

type page_invariant = {
  pi_name : string;
  pi_cite : string;
  pi_doc : string;
  pi_check : page_view -> string option;  (* [Some detail] = violated *)
}

let mask_of_copies copies =
  List.fold_left (fun acc f -> Procset.add (Frame.mem_module f) acc) Procset.empty copies

let page_invariants =
  [
    {
      pi_name = "mask-list-agreement";
      pi_cite = "§2.3";
      pi_doc = "the directory's bit mask names exactly the modules of its page list";
      pi_check =
        (fun v ->
          if Procset.equal (mask_of_copies v.pv_copies) v.pv_copy_mask then None
          else Some "copy mask disagrees with copy list");
    };
    {
      pi_name = "one-copy-per-module";
      pi_cite = "§2.3";
      pi_doc = "at most one backing page per memory module";
      pi_check =
        (fun v ->
          if List.length v.pv_copies = Procset.cardinal (mask_of_copies v.pv_copies) then None
          else Some "two copies share a memory module");
    };
    {
      pi_name = "single-writer";
      pi_cite = "§3.2";
      pi_doc = "a write mapping implies exactly one physical copy (modified state)";
      pi_check =
        (fun v ->
          if v.pv_write_mapped && List.length v.pv_copies > 1 then
            Some
              (Printf.sprintf "write mapping coexists with %d copies" (List.length v.pv_copies))
          else None);
    };
    {
      pi_name = "frozen-single-copy";
      pi_cite = "§4.2";
      pi_doc = "a frozen page never replicates until defrosted";
      pi_check =
        (fun v ->
          if v.pv_frozen && List.length v.pv_copies > 1 then
            Some (Printf.sprintf "frozen page has %d copies" (List.length v.pv_copies))
          else None);
    };
    {
      pi_name = "replica-coherence";
      pi_cite = "§2.3/§3.2";
      pi_doc = "all read-only replicas are word-for-word identical";
      pi_check =
        (fun v ->
          match v.pv_copies with
          | [] | [ _ ] -> None
          | first :: rest ->
            if List.for_all (fun f -> Frame.equal_data first f) rest then None
            else Some "replica data differs between modules");
    };
  ]

let check_page v =
  let rec go = function
    | [] -> Ok ()
    | pi :: rest -> (
      match pi.pi_check v with
      | None -> go rest
      | Some detail ->
        Error { inv = pi.pi_name; cite = pi.pi_cite; detail; cpage = Some v.pv_id })
  in
  go page_invariants

(* --- the runtime monitor --- *)

type trace_entry =
  | Request of { proc : int; aspace : int; vpage : int; write : bool }
  | Event of Probe.event

let pp_trace_entry fmt = function
  | Request { proc; aspace; vpage; write } ->
    Format.fprintf fmt "request: proc %d aspace %d vpage %d %s" proc aspace vpage
      (if write then "write" else "read")
  | Event ev -> Probe.pp_event fmt ev

type monitor = { trace : (Platinum_sim.Time_ns.t * trace_entry) Ring.t }

type violation = {
  v_fault : fault;
  v_at : Platinum_sim.Time_ns.t;
  v_trace : (Platinum_sim.Time_ns.t * trace_entry) list;  (* oldest first *)
}

exception Violation of violation

let create_monitor () = { trace = Ring.create ~capacity:128 }
let note m ~now entry = Ring.push m.trace (now, entry)
let trace m = Ring.to_list m.trace

let raise_violation m ~now f =
  raise (Violation { v_fault = f; v_at = now; v_trace = trace m })

let pp_violation fmt v =
  Format.fprintf fmt "@[<v>coherence invariant violated at t=%d: %s@,event prefix (%d entries):@,%a@]"
    v.v_at (render v.v_fault)
    (List.length v.v_trace)
    (Format.pp_print_list (fun fmt (t, e) -> Format.fprintf fmt "  [%d] %a" t pp_trace_entry e))
    v.v_trace

let violation_message v = Format.asprintf "%a" pp_violation v

let env_enabled = Platinum_sim.Engine.env_checks_armed
