(* Chunked vpage-indexed tables: the flat storage behind Pmap and Cmap.

   The PLATINUM argument (§3-4) is that the common case — a mapped,
   coherent access — must cost almost nothing.  An array indexed by vpage
   makes a hit bounds checks and loads, and returning the *stored* option
   cell keeps the hit path free of minor-heap allocation.  Keys in
   [0, dense_limit) resolve through a two-level array — an outer chunk
   directory grown geometrically, and 2^9-entry chunks allocated on first
   touch — so resident memory is proportional to the *touched* footprint
   (one chunk per touched 512-page window), not the span.  Negative keys
   and keys at or above [dense_limit] spill to a hash table that stores
   pre-wrapped options, so even spill hits allocate nothing.

   Why 2^9: a hosted node keeps three tables and touches a few pages, so
   a 2^12 chunk (32 KB) per table set the footprint of a 256-node run.
   512 cells is the smallest chunk still allocated straight on the major
   heap (over 256 words), so first touches stay out of the minor heap. *)

type 'a t = {
  mutable chunks : 'a option array array;
      (* outer directory, index = key lsr chunk_bits; [||] = never touched *)
  spill : (int, 'a option) Hashtbl.t;  (* keys outside [0, dense_limit) *)
  mutable population : int;
}

let chunk_bits = 9
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* The chunk-addressable span: 2^22 pages = 2^32 words of address space at
   the default kilo-word page.  The outer directory tops out at
   [dense_limit / chunk_size] = 8192 pointers, so even a touch at the very
   top of the span costs 64 KB of directory, not gigabytes of cells. *)
let dense_limit = 1 lsl 22

let max_chunks = dense_limit lsr chunk_bits

let create () = { chunks = [||]; spill = Hashtbl.create 8; population = 0 }

(* Out of line: a [try] would keep [find] from being inlined. *)
let find_spill t k = try Hashtbl.find t.spill k with Not_found -> None

let[@inline] find t k =
  if k >= 0 && k < dense_limit then begin
    let c = k lsr chunk_bits in
    if c < Array.length t.chunks then begin
      let ch = Array.unsafe_get t.chunks c in
      if Array.length ch = 0 then None else Array.unsafe_get ch (k land chunk_mask)
    end
    else None
  end
  else find_spill t k

let mem t k =
  if k >= 0 && k < dense_limit then begin
    let c = k lsr chunk_bits in
    if c < Array.length t.chunks then begin
      let ch = Array.unsafe_get t.chunks c in
      Array.length ch <> 0 && Array.unsafe_get ch (k land chunk_mask) <> None
    end
    else false
  end
  else Hashtbl.mem t.spill k

(* Grow the directory to reach chunk [c], allocate the chunk on first
   touch, and return it.  Only [set] pays this; probes never allocate. *)
let ensure_chunk t k =
  let c = k lsr chunk_bits in
  let n = Array.length t.chunks in
  if c >= n then begin
    let n' = Int.min max_chunks (Int.max 8 (Int.max (c + 1) (2 * n))) in
    let chunks = Array.make n' [||] in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  let ch = t.chunks.(c) in
  if Array.length ch <> 0 then ch
  else begin
    let ch = Array.make chunk_size None in
    t.chunks.(c) <- ch;
    ch
  end

let set t k v =
  if k >= 0 && k < dense_limit then begin
    let ch = ensure_chunk t k in
    let i = k land chunk_mask in
    (match Array.unsafe_get ch i with
    | None -> t.population <- t.population + 1
    | Some _ -> ());
    Array.unsafe_set ch i (Some v)
  end
  else begin
    if not (Hashtbl.mem t.spill k) then t.population <- t.population + 1;
    Hashtbl.replace t.spill k (Some v)
  end

let remove t k =
  if k >= 0 && k < dense_limit then begin
    let c = k lsr chunk_bits in
    if c < Array.length t.chunks then begin
      let ch = Array.unsafe_get t.chunks c in
      if Array.length ch <> 0 then begin
        let i = k land chunk_mask in
        match Array.unsafe_get ch i with
        | None -> ()
        | Some _ ->
          Array.unsafe_set ch i None;
          t.population <- t.population - 1
      end
    end
  end
  else if Hashtbl.mem t.spill k then begin
    Hashtbl.remove t.spill k;
    t.population <- t.population - 1
  end

let length t = t.population

let iter f t =
  for c = 0 to Array.length t.chunks - 1 do
    let ch = Array.unsafe_get t.chunks c in
    if Array.length ch <> 0 then
      for i = 0 to chunk_size - 1 do
        match Array.unsafe_get ch i with
        | Some v -> f ((c lsl chunk_bits) lor i) v
        | None -> ()
      done
  done;
  Hashtbl.iter (fun k v -> match v with Some v -> f k v | None -> ()) t.spill

let chunk_count t = Array.length t.chunks
