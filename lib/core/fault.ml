exception Unmapped of { aspace : int; vpage : int }
exception Protection_violation of { aspace : int; vpage : int; write : bool }
exception Out_of_physical_memory

type place =
  | First_touch
  | Near
  | Exactly

type keep =
  | Keep_local
  | Keep_fresh
  | Keep_chosen
  | Keep_newest

type mapping =
  | Local
  | Zeroed
  | Copied
  | Remote

type step =
  | Shootdown of { directive : Cmap.directive; spare : bool; protocol : bool }
  | Alloc of { place : place; fallback : step list }
  | Zero_fill of { counted : bool }
  | Copy of { abortable : bool; on_abort : step list }
  | Free_copies of keep
  | Settle
  | Note_remote
  | Freeze of { degraded : bool }
  | Thaw
  | Map of mapping

(* Every plan is a constant, built when the module is initialised; [plan]
   only selects one. *)

let invalidate ~spare = Shootdown { directive = Cmap.Invalidate; spare; protocol = true }
let remote = [ Note_remote; Map Remote ]

(* A write through a remote mapping still requires a single copy. *)
let remote_shared = [ Note_remote; invalidate ~spare:false; Free_copies Keep_chosen; Map Remote ]

(* Repeated copy aborts: give up on the move, freeze the page where it
   lives and map it remotely.  The shootdown before the copy dropped write
   mappings but not the write flag, so settle first (the monitor checks at
   the freeze). *)
let freeze_in_place = Settle :: Freeze { degraded = true } :: remote

(* First touch: allocate locally and zero-fill. *)
let zero_fill =
  [ Alloc { place = First_touch; fallback = [] }; Zero_fill { counted = true }; Map Zeroed ]

(* present1 → modified needs no invalidation and no reclamation (§3.2);
   present+ → modified keeping the local copy invalidates every other
   translation and reclaims the other physical pages. *)
let map_local = [ Map Local ]
let upgrade = [ invalidate ~spare:true; Free_copies Keep_local; Map Local ]
let frozen_remote = Freeze { degraded = false } :: remote
let frozen_remote_shared = Freeze { degraded = false } :: remote_shared

(* Bringing the page to the faulting processor: a migration on a write
   (invalidate all other translations, copy, free the old copies), a
   replica on a read, whose modified source first has its write mappings
   restricted to read-only.  Each comes plain and after a thaw. *)
type move = { plain : step list; thawed : step list }

let move ~write ~restrict ~fallback =
  let copy on_abort = Copy { abortable = true; on_abort } in
  let restrict_writers =
    Shootdown { directive = Cmap.Restrict_to_read; spare = false; protocol = true }
  in
  let steps =
    Alloc { place = Near; fallback }
    ::
    (if write then
       [
         invalidate ~spare:false;
         copy (Free_copies Keep_chosen :: freeze_in_place);
         Free_copies Keep_fresh;
         Map Copied;
       ]
     else if restrict then [ restrict_writers; copy freeze_in_place; Map Copied ]
     else [ copy freeze_in_place; Map Copied ])
  in
  { plain = steps; thawed = Thaw :: steps }

let replica = move ~write:false ~restrict:false ~fallback:remote
let restricted_replica = move ~write:false ~restrict:true ~fallback:remote
let migration = move ~write:true ~restrict:false ~fallback:remote
let shared_migration = move ~write:true ~restrict:false ~fallback:remote_shared

let plan ~write ~state ~copies ~local ~frozen verdict =
  let shared = write && copies > 1 in
  match (state : Cpage.state) with
  | Empty -> zero_fill
  | Present1 | Present_plus | Modified when local -> if shared then upgrade else map_local
  | Present1 | Present_plus | Modified -> (
    (* A frozen page keeps its one copy whatever the policy says: only a
       thaw may move or replicate it (§4.2). *)
    let verdict =
      if copies = 0 then Policy.Replicate
      else if frozen && verdict = Policy.Replicate then Policy.Remote_map
      else verdict
    in
    match verdict with
    | Policy.Remote_map -> if shared then remote_shared else remote
    | Policy.Freeze -> if shared then frozen_remote_shared else frozen_remote
    | (Policy.Replicate | Policy.Thaw) as verdict ->
      let thaws = verdict = Policy.Thaw in
      (* A thaw drops the write mappings a restriction would. *)
      let m =
        if shared then shared_migration
        else if write then migration
        else if state = Modified && not (thaws && frozen) then restricted_replica
        else replica
      in
      if thaws then m.thawed else m.plain)

(* Collapse for advice: keep (or make) the target's copy, shoot every
   translation down, free the rest.  Out of memory, the page keeps its
   newest copy instead — or, untouched, stays as it is. *)
let drop = Shootdown { directive = Cmap.Invalidate; spare = false; protocol = false }
let onto_fresh = [ drop; Free_copies Keep_fresh; Settle ]
let collapse_local = [ drop; Free_copies Keep_local; Settle ]
let collapse_zeroed =
  Alloc { place = Exactly; fallback = [ Settle ] } :: Zero_fill { counted = false } :: onto_fresh

let collapse_copied =
  Alloc { place = Exactly; fallback = [ drop; Free_copies Keep_newest; Settle ] }
  :: Copy { abortable = false; on_abort = [] }
  :: onto_fresh

let collapse ~local ~copies =
  if local then collapse_local else if copies = 0 then collapse_zeroed else collapse_copied
