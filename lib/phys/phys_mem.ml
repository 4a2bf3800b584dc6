(* One module's frames: [freed] holds freed frames, most recently freed
   first; frames [next_fresh, frames) were never handed out. *)
type pool = {
  mutable freed : Frame.t list;
  mutable next_fresh : int;
  mutable nfree : int;
}

type t = {
  pools : pool array;
  frames : int;  (* per module *)
  words_per_page : int;
}

let create ~modules ~frames_per_module ~page_words =
  if modules <= 0 then invalid_arg "Phys_mem.create: modules must be positive";
  if frames_per_module <= 0 then invalid_arg "Phys_mem.create: frames_per_module must be positive";
  if page_words <= 0 then invalid_arg "Phys_mem.create: page_words must be positive";
  {
    pools =
      Array.init modules (fun _ -> { freed = []; next_fresh = 0; nfree = frames_per_module });
    frames = frames_per_module;
    words_per_page = page_words;
  }

let modules t = Array.length t.pools
let page_words t = t.words_per_page

let take t p ~mem_module =
  match p.freed with
  | f :: rest ->
    p.freed <- rest;
    Some f
  | [] when p.next_fresh < t.frames ->
    let i = p.next_fresh in
    p.next_fresh <- i + 1;
    Some (Frame.create ~mem_module ~index:i ~words:t.words_per_page)
  | [] -> None

let alloc t ~mem_module ~cpage =
  let p = t.pools.(mem_module) in
  match take t p ~mem_module with
  | None -> None
  | Some f as r ->
    p.nfree <- p.nfree - 1;
    Frame.set_owner f (Some cpage);
    r

let free t frame =
  if Frame.owner frame = None then invalid_arg "Phys_mem.free: frame is already free";
  let p = t.pools.(Frame.mem_module frame) in
  Frame.set_owner frame None;
  p.freed <- frame :: p.freed;
  p.nfree <- p.nfree + 1

let free_count t ~mem_module = t.pools.(mem_module).nfree
let total_free t = Array.fold_left (fun acc p -> acc + p.nfree) 0 t.pools
let total_frames t = t.frames * Array.length t.pools
