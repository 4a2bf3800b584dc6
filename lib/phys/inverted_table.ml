type t = {
  table_module : int;
  page_words : int;
  frames : Frame.t option array;  (* materialized on first allocation *)
  by_cpage : (int, int) Hashtbl.t;  (* cpage id -> frame index *)
  mutable free_list : int list;
  mutable nfree : int;
}

(* Frames are materialized lazily: simulated machines configure thousands
   of frames per module but most workloads touch a handful of pages, and
   eagerly building every page-sized data array dominated simulator
   construction time.  A frame's backing array appears the first time the
   frame is handed out; once materialized it is reused across free/alloc
   cycles, preserving physical identity (a re-allocated frame is the same
   [Frame.t], with whatever stale data it last held — exactly the eager
   behaviour). *)
let frame_at t i =
  match t.frames.(i) with
  | Some f -> f
  | None ->
    let f = Frame.create ~mem_module:t.table_module ~index:i ~words:t.page_words in
    t.frames.(i) <- Some f;
    f

let create ~mem_module ~frames ~page_words =
  if frames <= 0 then invalid_arg "Inverted_table.create: frames must be positive";
  if page_words <= 0 then invalid_arg "Inverted_table.create: page_words must be positive";
  let free_list = List.init frames (fun i -> i) in
  {
    table_module = mem_module;
    page_words;
    frames = Array.make frames None;
    by_cpage = Hashtbl.create (frames * 2);
    free_list;
    nfree = frames;
  }

let mem_module t = t.table_module
let capacity t = Array.length t.frames
let free_count t = t.nfree
let used_count t = capacity t - t.nfree

let alloc t ~cpage =
  if Hashtbl.mem t.by_cpage cpage then
    invalid_arg
      (Printf.sprintf "Inverted_table.alloc: module %d already backs cpage %d"
         t.table_module cpage);
  match t.free_list with
  | [] -> None
  | i :: rest ->
    t.free_list <- rest;
    t.nfree <- t.nfree - 1;
    let f = frame_at t i in
    Frame.set_owner f (Some cpage);
    Hashtbl.replace t.by_cpage cpage i;
    Some f

let lookup t ~cpage =
  match Hashtbl.find_opt t.by_cpage cpage with
  | None -> None
  | Some i -> Some (frame_at t i)

let free t frame =
  if Frame.mem_module frame <> t.table_module then
    invalid_arg "Inverted_table.free: frame belongs to another module";
  begin
    match Frame.owner frame with
    | None -> invalid_arg "Inverted_table.free: frame is already free"
    | Some cpage -> Hashtbl.remove t.by_cpage cpage
  end;
  Frame.set_owner frame None;
  t.free_list <- Frame.index frame :: t.free_list;
  t.nfree <- t.nfree + 1

let frame t i = frame_at t i

