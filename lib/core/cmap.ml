module Procset = Platinum_machine.Procset

type centry = {
  cpage : Cpage.t;
  mutable vrights : Rights.t;
  mutable refmask : Procset.t;
}

type directive =
  | Restrict_to_read
  | Invalidate

type t = {
  aspace_id : int;
  entries : centry Flat.t;
  pmaps : Pmap.t array;
}

let create ~aspace ~nprocs =
  {
    aspace_id = aspace;
    entries = Flat.create ();
    pmaps = Array.init nprocs (fun _ -> Pmap.create ());
  }

let aspace t = t.aspace_id
let pmap t ~proc = t.pmaps.(proc)
let find t ~vpage = Flat.find t.entries vpage

let bind t ~vpage cpage vrights =
  if Flat.mem t.entries vpage then
    invalid_arg (Printf.sprintf "Cmap.bind: vpage %d already bound in aspace %d" vpage t.aspace_id);
  let e = { cpage; vrights; refmask = Procset.empty } in
  Flat.set t.entries vpage e;
  e

let unbind t ~vpage = Flat.remove t.entries vpage

(* Aspace-level invariants: the reference masks and the per-processor
   Pmaps must tell the same story, and every installed translation must
   point into its page's directory with rights the page state permits.
   The reverse direction (a Pmap entry whose processor is missing from the
   refmask, or whose vpage is not bound at all) is exactly what a botched
   shootdown leaves behind — the NUMA analogue of a stale TLB entry. *)
let check_faults t =
  let fault = ref None in
  let fail ?cpage ~inv ~cite fmt =
    Printf.ksprintf
      (fun detail ->
        if !fault = None then fault := Some { Check.inv; cite; detail; cpage })
      fmt
  in
  Flat.iter
    (fun vpage ce ->
      let page = ce.cpage in
      Procset.iter
        (fun p ->
          match Pmap.find t.pmaps.(p) ~vpage with
          | None ->
            fail ~cpage:page.Cpage.id ~inv:"refmask-pmap-agreement" ~cite:"§3.1"
              "aspace %d vpage %d: proc %d in refmask without a Pmap entry" t.aspace_id vpage p
          | Some e ->
            if e.Pmap.cpage != page then
              fail ~cpage:page.Cpage.id ~inv:"entry-page-agreement" ~cite:"§3.1"
                "aspace %d vpage %d: proc %d's Pmap entry carries cpage %d" t.aspace_id vpage p
                e.Pmap.cpage.Cpage.id
            else if not (Cpage.mem_frame page e.Pmap.frame) then
              fail ~cpage:page.Cpage.id ~inv:"translation-in-directory" ~cite:"§3.1/§3.2"
                "aspace %d vpage %d: proc %d maps a frame outside the directory" t.aspace_id
                vpage p
            else if e.Pmap.write_ok && not page.Cpage.write_mapped then
              fail ~cpage:page.Cpage.id ~inv:"write-flag-agreement" ~cite:"§3.2"
                "aspace %d vpage %d: proc %d holds a write translation on a non-write-mapped \
                 page"
                t.aspace_id vpage p
            else if e.Pmap.write_ok && Cpage.ncopies page > 1 then
              fail ~cpage:page.Cpage.id ~inv:"replicas-read-only" ~cite:"§3.2"
                "aspace %d vpage %d: write translation with %d copies" t.aspace_id vpage
                (Cpage.ncopies page))
        ce.refmask)
    t.entries;
  Array.iteri
    (fun p pmap ->
      Pmap.iter
        (fun vpage _e ->
          match Flat.find t.entries vpage with
          | None ->
            fail ~inv:"stale-translation" ~cite:"§3.1"
              "aspace %d: proc %d holds a translation for unbound vpage %d" t.aspace_id p vpage
          | Some ce ->
            if not (Procset.mem p ce.refmask) then
              fail ~cpage:ce.cpage.Cpage.id ~inv:"refmask-pmap-agreement" ~cite:"§3.1"
                "aspace %d vpage %d: proc %d holds a Pmap entry but is absent from the refmask"
                t.aspace_id vpage p)
        pmap)
    t.pmaps;
  !fault
