type t = {
  atc_proc : int;
  mutable aspace : int;  (* -1 = none *)
  entries : Pmap.entry Flat.t;
  (* Micro-ATC: the last translation this processor used (numaPTE's
     locality argument applied to the simulator's own hot path).  Accesses
     that stay on one page skip even the dense-table load; it mirrors an
     [entries] cell exactly, so every path that drops an entry must also
     drop the mirror.  Purely a host-speed device: a hit here costs the
     same simulated 0 ns as any ATC hit. *)
  mutable last_vpage : int;  (* -1 = empty *)
  mutable last_entry : Pmap.entry option;
}

let create ~proc =
  { atc_proc = proc; aspace = -1; entries = Flat.create (); last_vpage = -1; last_entry = None }

let proc t = t.atc_proc
let active_aspace t = if t.aspace < 0 then None else Some t.aspace
let is_active t ~aspace = aspace >= 0 && t.aspace = aspace

let clear_last t =
  t.last_vpage <- -1;
  t.last_entry <- None

let flush t =
  Flat.clear t.entries;
  clear_last t

let activate t ~aspace =
  if t.aspace = aspace then false
  else begin
    flush t;
    t.aspace <- aspace;
    true
  end

(* lint: allow epoch-soundness — teardown entry point with no in-library
   callers (tests and future kernels drop an ATC wholesale); emptying the
   ATC can only turn fast-path hits into declines, never admit a stale
   hit, so no epoch bump is needed for soundness. *)
let deactivate t =
  flush t;
  t.aspace <- -1

(* Both arms return the stored option cell — a hit never allocates. *)
let find t ~aspace ~vpage =
  if t.aspace <> aspace then None
  else if vpage = t.last_vpage then t.last_entry
  else begin
    match Flat.find t.entries vpage with
    | Some _ as hit ->
      t.last_vpage <- vpage;
      t.last_entry <- hit;
      hit
    | None -> None
  end

let load t ~vpage entry =
  if t.aspace < 0 then invalid_arg "Atc.load: no active address space";
  Flat.set t.entries vpage entry;
  t.last_vpage <- vpage;
  t.last_entry <- Some entry

let invalidate t ~aspace ~vpage =
  if t.aspace = aspace then begin
    Flat.remove t.entries vpage;
    if vpage = t.last_vpage then clear_last t
  end

let size t = Flat.length t.entries

(* Sanitizer hooks.  [peek] is [find] without the micro-ATC mirror update:
   the monitor must be able to ask "does this ATC still hold a translation?"
   without perturbing the state it is checking. *)
let peek t ~aspace ~vpage =
  if t.aspace <> aspace then None else Flat.find t.entries vpage

let iter f t = Flat.iter f t.entries

let check_faults t =
  if t.last_vpage < 0 then
    match t.last_entry with
    | None -> None
    | Some _ ->
      Some
        (Check.fault ~inv:"micro-atc-mirror" ~cite:"PR 1"
           "ATC of proc %d: mirror entry with no mirror vpage" t.atc_proc)
  else
    match t.last_entry, Flat.find t.entries t.last_vpage with
    | Some a, Some b when a == b -> None
    | None, _ ->
      Some
        (Check.fault ~inv:"micro-atc-mirror" ~cite:"PR 1"
           "ATC of proc %d: mirror vpage %d with no mirror entry" t.atc_proc t.last_vpage)
    | Some _, None ->
      Some
        (Check.fault ~inv:"micro-atc-mirror" ~cite:"PR 1"
           "ATC of proc %d: mirror caches vpage %d absent from the entry table" t.atc_proc
           t.last_vpage)
    | Some _, Some _ ->
      Some
        (Check.fault ~inv:"micro-atc-mirror" ~cite:"PR 1"
           "ATC of proc %d: mirror disagrees with the entry table for vpage %d" t.atc_proc
           t.last_vpage)
