type t = {
  table_module : int;
  page_words : int;
  capacity : int;
  by_cpage : (int, Frame.t) Hashtbl.t;  (* cpage id -> its frame here *)
  mutable freed : Frame.t list;  (* freed frames, most recently freed first *)
  mutable next_fresh : int;  (* frames [next_fresh, capacity) were never handed out *)
  mutable nfree : int;
}

(* Built lazily: simulated machines configure thousands of frames per
   module but most workloads touch a handful of pages, so [create] is
   O(1) and a frame's backing array appears the first time the frame is
   handed out.  Frames go out freed-first, most recently freed first, then
   never-used frames in ascending index order — the order of a free list
   that starts as [0; 1; ...] and has freed frames pushed on its head.  A
   freed frame is kept, so a re-allocated frame is the same [Frame.t] with
   whatever stale data it last held.  [by_cpage] starts small; it is only
   searched, so its size cannot change an output. *)
let create ~mem_module ~frames ~page_words =
  if frames <= 0 then invalid_arg "Inverted_table.create: frames must be positive";
  if page_words <= 0 then invalid_arg "Inverted_table.create: page_words must be positive";
  {
    table_module = mem_module;
    page_words;
    capacity = frames;
    by_cpage = Hashtbl.create 16;
    freed = [];
    next_fresh = 0;
    nfree = frames;
  }

let mem_module t = t.table_module
let capacity t = t.capacity
let free_count t = t.nfree
let used_count t = t.capacity - t.nfree

let take t =
  match t.freed with
  | f :: rest ->
    t.freed <- rest;
    Some f
  | [] when t.next_fresh < t.capacity ->
    let i = t.next_fresh in
    t.next_fresh <- i + 1;
    Some (Frame.create ~mem_module:t.table_module ~index:i ~words:t.page_words)
  | [] -> None

let alloc t ~cpage =
  if Hashtbl.mem t.by_cpage cpage then
    invalid_arg
      (Printf.sprintf "Inverted_table.alloc: module %d already backs cpage %d"
         t.table_module cpage);
  match take t with
  | None -> None
  | Some f as r ->
    t.nfree <- t.nfree - 1;
    Frame.set_owner f (Some cpage);
    Hashtbl.replace t.by_cpage cpage f;
    r

let lookup t ~cpage = Hashtbl.find_opt t.by_cpage cpage

let free t frame =
  if Frame.mem_module frame <> t.table_module then
    invalid_arg "Inverted_table.free: frame belongs to another module";
  begin
    match Frame.owner frame with
    | None -> invalid_arg "Inverted_table.free: frame is already free"
    | Some cpage -> Hashtbl.remove t.by_cpage cpage
  end;
  Frame.set_owner frame None;
  t.freed <- frame :: t.freed;
  t.nfree <- t.nfree + 1
