module Frame = Platinum_phys.Frame
module Procset = Platinum_machine.Procset

type state =
  | Empty
  | Present1
  | Present_plus
  | Modified

type stats = {
  mutable read_faults : int;
  mutable write_faults : int;
  mutable replications : int;
  mutable migrations : int;
  mutable invalidations : int;
  mutable restrictions : int;
  mutable freezes : int;
  mutable thaws : int;
  mutable remote_maps : int;
  mutable fault_wait_ns : int;
  mutable ever_written : bool;
  mutable was_frozen : bool;
}

(* The directory.  At most one backing frame per memory module (the
   protocol invariant the old list silently relied on), so the copy set is
   a frame slot per module indexed by the module number — the same index
   space as the [Procset.t] bit mask.  Add, remove and membership are one
   array access instead of the old list scans (cpage.ml:97-99 of the seed).

   [slot_seq] stamps each insertion: the protocol's replication source
   choice ([any_copy]) was "most recently added copy" when the directory
   was a cons list, and golden-trace determinism depends on preserving
   exactly that choice. *)
type t = {
  id : int;
  home : int;
  mutable slots : Frame.t option array;  (* directory frame per module *)
  mutable slot_seq : int array;  (* insertion stamp per module; -1 = empty *)
  mutable next_seq : int;
  mutable copy_mask : Procset.t;
  mutable write_mapped : bool;
  mutable last_protocol_inval : Platinum_sim.Time_ns.t;
  mutable frozen : bool;
  mutable frozen_at : Platinum_sim.Time_ns.t;
  mutable last_thaw_at : Platinum_sim.Time_ns.t;
  mutable adaptive_t2 : Platinum_sim.Time_ns.t;
  stats : stats;
  mutable label : string;
}

let never_invalidated = min_int / 4

let fresh_stats () =
  {
    read_faults = 0;
    write_faults = 0;
    replications = 0;
    migrations = 0;
    invalidations = 0;
    restrictions = 0;
    freezes = 0;
    thaws = 0;
    remote_maps = 0;
    fault_wait_ns = 0;
    ever_written = false;
    was_frozen = false;
  }

let create ~id ~home ?(label = "") () =
  {
    id;
    home;
    slots = [||];
    slot_seq = [||];
    next_seq = 0;
    copy_mask = Procset.empty;
    write_mapped = false;
    last_protocol_inval = never_invalidated;
    frozen = false;
    frozen_at = 0;
    last_thaw_at = never_invalidated;
    adaptive_t2 = 0;
    stats = fresh_stats ();
    label;
  }

let ncopies t = Procset.cardinal t.copy_mask
let has_copy_on t m = Procset.mem m t.copy_mask

(* O(1) on the mask: clearing its lowest bit leaves 0 iff one copy. *)
let state t =
  let m = (t.copy_mask :> int) in
  if m = 0 then Empty
  else if m land (m - 1) <> 0 then Present_plus
  else if t.write_mapped then Modified
  else Present1

let local_copy t m =
  if m >= 0 && m < Array.length t.slots then Array.unsafe_get t.slots m else None

(* The most recently added copy: what the head of the old cons list was.
   A top-level tail recursion over the slot index (no closure, no ref
   cells, no allocation) — this sits on the cachability test of the read
   hit path and the zero-alloc lint holds it there. *)
let rec best_slot (seq : int array) m best (best_seq : int) =
  if m >= Array.length seq then best
  else if Array.unsafe_get seq m > best_seq then
    best_slot seq (m + 1) m (Array.unsafe_get seq m)
  else best_slot seq (m + 1) best best_seq

let any_copy t =
  if Procset.is_empty t.copy_mask then invalid_arg "Cpage.any_copy: empty page";
  match t.slots.(best_slot t.slot_seq 0 (-1) (-1)) with
  | Some f -> f
  | None -> assert false

let mem_frame t frame =
  let m = Frame.mem_module frame in
  m >= 0 && m < Array.length t.slots
  && (match Array.unsafe_get t.slots m with Some f -> f == frame | None -> false)

let ensure_slots t m =
  let n = Array.length t.slots in
  if m >= n then begin
    let n' = max (m + 1) (max 4 (2 * n)) in
    let slots = Array.make n' None in
    let seq = Array.make n' (-1) in
    Array.blit t.slots 0 slots 0 n;
    Array.blit t.slot_seq 0 seq 0 n;
    t.slots <- slots;
    t.slot_seq <- seq
  end

let add_copy t frame =
  let m = Frame.mem_module frame in
  if has_copy_on t m then
    invalid_arg (Printf.sprintf "Cpage.add_copy: module %d already backs cpage %d" m t.id);
  ensure_slots t m;
  t.slots.(m) <- Some frame;
  t.slot_seq.(m) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.copy_mask <- Procset.add m t.copy_mask

let remove_copy t frame =
  let m = Frame.mem_module frame in
  if not (mem_frame t frame) then
    invalid_arg (Printf.sprintf "Cpage.remove_copy: frame not in directory of cpage %d" t.id);
  t.slots.(m) <- None;
  t.slot_seq.(m) <- -1;
  t.copy_mask <- Procset.remove m t.copy_mask

(* Newest-first, matching the old cons-list order (tests and the model
   checker fingerprint observable state through this). *)
let copies t =
  let acc = ref [] in
  for m = 0 to Array.length t.slots - 1 do
    match t.slots.(m) with
    | Some f -> acc := (t.slot_seq.(m), f) :: !acc
    | None -> ()
  done;
  List.map snd (List.sort (fun (a, _) (b, _) -> compare b a) !acc)

let iter_copies f t =
  for m = 0 to Array.length t.slots - 1 do
    match Array.unsafe_get t.slots m with
    | Some frame -> f frame
    | None -> ()
  done

(* The invariant catalogue lives in {!Check}; this module only snapshots
   itself into a view and delegates, so the runtime monitor, the model
   checker, and these on-demand checks can never drift apart. *)
let to_view t =
  {
    Check.pv_id = t.id;
    pv_copies = copies t;
    pv_copy_mask = t.copy_mask;
    pv_write_mapped = t.write_mapped;
    pv_frozen = t.frozen;
  }

let state_to_string = function
  | Empty -> "empty"
  | Present1 -> "present1"
  | Present_plus -> "present+"
  | Modified -> "modified"

let pp_state fmt s = Format.pp_print_string fmt (state_to_string s)

let check_faults t = Check.check_page (to_view t)

let check_invariants t = Result.map_error Check.render (check_faults t)

let pp fmt t =
  Format.fprintf fmt "cpage %d%s: %a, copies=%a%s%s" t.id
    (if t.label = "" then "" else Printf.sprintf " (%s)" t.label)
    pp_state (state t) Procset.pp t.copy_mask
    (if t.write_mapped then ", write-mapped" else "")
    (if t.frozen then ", FROZEN" else "")
