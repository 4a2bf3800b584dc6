module Frame = Platinum_phys.Frame

type entry = {
  frame : Platinum_phys.Frame.t;
  mutable write_ok : bool;
}

(* Entries are shared by physical identity with the ATC (a [restrict]
   applied here is visible through the ATC too), so the record itself
   cannot be flattened away.  What can be flattened is the *index*: a
   chunked vpage-indexed table of entry cells (see {!Flat}), plus a packed
   mirror that folds presence, the write bit and the frame coordinates
   into one immediate int per chunked vpage:

     bit 0      present
     bit 1      write_ok
     bits 2-7   memory module (Procset caps the machine at 62)
     bits 8..   frame index within its module

   The mirror chunks in lockstep with the entry table — a packed chunk is
   allocated exactly when [install] first touches the matching entry
   chunk, so a GB-scale sparse address space pays for touched chunks only.
   The mirror answers presence and write-permission probes without
   touching the boxed record, and the sanitizer verifies it never drifts
   from the entry table ([check_faults]).  Spill entries (vpage outside
   the chunked range) are not mirrored; probes fall back to the table. *)
type t = {
  pmap_proc : int;
  entries : entry Flat.t;
  mutable packed : int array array;  (* grown in lockstep with the entry chunks *)
}

let pack e =
  1
  lor (if e.write_ok then 2 else 0)
  lor (Frame.mem_module e.frame lsl 2)
  lor (Frame.index e.frame lsl 8)

let create ~proc = { pmap_proc = proc; entries = Flat.create (); packed = [||] }
let proc t = t.pmap_proc
let find t ~vpage = Flat.find t.entries vpage

let sync_packed t =
  let n = Flat.chunk_count t.entries in
  if Array.length t.packed < n then begin
    let p = Array.make n [||] in
    Array.blit t.packed 0 p 0 (Array.length t.packed);
    t.packed <- p
  end

(* The packed chunk for [vpage], allocated on first touch — callers have
   already grown the entry table, so [sync_packed] makes the directory
   long enough and the chunk itself mirrors the entry chunk's granule. *)
let mirror_chunk t vpage =
  sync_packed t;
  let c = vpage lsr Flat.chunk_bits in
  let ch = t.packed.(c) in
  if Array.length ch <> 0 then ch
  else begin
    let ch = Array.make Flat.chunk_size 0 in
    t.packed.(c) <- ch;
    ch
  end

let mirrored vpage = vpage >= 0 && vpage < Flat.dense_limit

let install t ~vpage ~frame ~write_ok =
  let e = { frame; write_ok } in
  Flat.set t.entries vpage e;
  if mirrored vpage then (mirror_chunk t vpage).(vpage land Flat.chunk_mask) <- pack e;
  e

(* Update an existing mirror slot; chunk presence follows [install]. *)
let mirror_set t vpage v =
  let c = vpage lsr Flat.chunk_bits in
  if c < Array.length t.packed then begin
    let ch = t.packed.(c) in
    if Array.length ch <> 0 then ch.(vpage land Flat.chunk_mask) <- v
  end

let remove t ~vpage =
  Flat.remove t.entries vpage;
  if mirrored vpage then mirror_set t vpage 0

let restrict t ~vpage =
  match Flat.find t.entries vpage with
  | None -> ()
  | Some e ->
    e.write_ok <- false;
    if mirrored vpage then
      mirror_set t vpage (pack e)

(* Teardown: reset a processor's map wholesale (no in-library caller). *)
let clear t =
  Flat.clear t.entries;
  t.packed <- [||]

let size t = Flat.length t.entries
let iter f t = Flat.iter f t.entries

let mem t ~vpage =
  if mirrored vpage then begin
    let c = vpage lsr Flat.chunk_bits in
    if c < Array.length t.packed then begin
      let p = Array.unsafe_get t.packed c in
      Array.length p <> 0
      && Array.unsafe_get p (vpage land Flat.chunk_mask) land 1 <> 0
    end
    else false
  end
  else Flat.mem t.entries vpage

let write_ok t ~vpage =
  if mirrored vpage then begin
    let c = vpage lsr Flat.chunk_bits in
    if c < Array.length t.packed then begin
      let p = Array.unsafe_get t.packed c in
      Array.length p <> 0
      && Array.unsafe_get p (vpage land Flat.chunk_mask) land 2 <> 0
    end
    else false
  end
  else match Flat.find t.entries vpage with Some e -> e.write_ok | None -> false

let check_faults t =
  let fault = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun detail ->
        if !fault = None then
          fault := Some (Check.fault ~inv:"packed-mirror" ~cite:"PR 5" "%s" detail))
      fmt
  in
  for c = 0 to Flat.chunk_count t.entries - 1 do
    if Flat.chunk_touched t.entries c then begin
      (* An entry chunk the mirror cannot see means that lockstep broke. *)
      if c >= Array.length t.packed || Array.length t.packed.(c) = 0 then begin
        let populated = ref false in
        for i = 0 to Flat.chunk_size - 1 do
          if Flat.mem t.entries ((c lsl Flat.chunk_bits) lor i) then populated := true
        done;
        if !populated then
          fail "Pmap of proc %d: entry chunk %d outgrew the packed mirror" t.pmap_proc c
      end
      else
        for i = 0 to Flat.chunk_size - 1 do
          let vpage = (c lsl Flat.chunk_bits) lor i in
          let expected =
            match Flat.find t.entries vpage with None -> 0 | Some e -> pack e
          in
          if t.packed.(c).(i) <> expected then
            fail "Pmap of proc %d: packed mirror %#x for vpage %d, entry table says %#x"
              t.pmap_proc t.packed.(c).(i) vpage expected
        done
    end
  done;
  (* Packed chunks with bits set but no entry chunk behind them would
     answer probes for unmapped pages. *)
  for c = 0 to Array.length t.packed - 1 do
    if Array.length t.packed.(c) <> 0 && not (Flat.chunk_touched t.entries c) then
      for i = 0 to Flat.chunk_size - 1 do
        if t.packed.(c).(i) <> 0 then
          fail "Pmap of proc %d: packed mirror %#x for vpage %d with no entry chunk"
            t.pmap_proc t.packed.(c).(i) ((c lsl Flat.chunk_bits) lor i)
      done
  done;
  !fault
