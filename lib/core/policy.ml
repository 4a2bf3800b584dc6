type decision =
  | Replicate
  | Remote_map
  | Freeze
  | Thaw

type fault_kind =
  | Read_fault
  | Write_fault

type kind =
  | Platinum of { thaw_on_fault : bool }
  | Always_replicate
  | Never_move
  | Migrate_only
  | Bolosky of { max_migrations : int }
  | Uniform_system
  | Competitive of { threshold : int }

type t = {
  kind : kind;
  t1 : Platinum_sim.Time_ns.t;
  interest : (int, int) Hashtbl.t option;  (* Competitive's misses per page since it last moved *)
}

let make ~t1 kind =
  let interest =
    match kind with
    | Competitive _ -> Some (Hashtbl.create 256)
    | _ -> None
  in
  { kind; t1; interest }

let name t =
  match t.kind with
  | Platinum { thaw_on_fault } -> if thaw_on_fault then "platinum-thaw" else "platinum"
  | Always_replicate -> "always-replicate"
  | Never_move -> "static-place"
  | Uniform_system -> "uniform-system"
  | Migrate_only -> "migrate-only"
  | Bolosky _ -> "bolosky"
  | Competitive _ -> "competitive"

let uses_defrost t = match t.kind with Platinum _ -> true | _ -> false
let scatter_placement t = match t.kind with Uniform_system -> true | _ -> false

let platinum_decide ~t1 ~thaw_on_fault ~now (page : Cpage.t) =
  (* A recent protocol invalidation means the page is being actively
     write-shared; caching it would cost more than remote access. *)
  let recent = now - page.Cpage.last_protocol_inval < t1 in
  if page.Cpage.frozen then if thaw_on_fault && not recent then Thaw else Remote_map
  else if recent then Freeze
  else Replicate

let competitive_decide ~threshold interest (page : Cpage.t) =
  let id = page.Cpage.id in
  let n = 1 + (try Hashtbl.find interest id with Not_found -> 0) in
  if n >= threshold then begin
    Hashtbl.replace interest id 0;
    Replicate
  end
  else begin
    Hashtbl.replace interest id n;
    Remote_map
  end

let decide t ~now kind (page : Cpage.t) =
  match t.kind with
  | Platinum { thaw_on_fault } -> platinum_decide ~t1:t.t1 ~thaw_on_fault ~now page
  | Always_replicate -> Replicate
  | Never_move | Uniform_system -> Remote_map
  | Migrate_only -> ( match kind with Read_fault -> Remote_map | Write_fault -> Replicate)
  | Bolosky { max_migrations } -> (
    match kind with
    | Read_fault -> if page.Cpage.stats.Cpage.ever_written then Remote_map else Replicate
    | Write_fault ->
      if page.Cpage.stats.Cpage.migrations < max_migrations then Replicate else Remote_map)
  | Competitive { threshold } -> (
    match t.interest with
    | Some interest -> competitive_decide ~threshold interest page
    | None -> assert false (* [make] builds the table for this kind *))

let page_input t (page : Cpage.t) =
  match t.kind with
  | Bolosky { max_migrations } ->
    let st = page.Cpage.stats in
    (min st.Cpage.migrations max_migrations lsl 1) lor Bool.to_int st.Cpage.ever_written
  | Competitive _ -> (
    match t.interest with
    | Some interest -> ( try Hashtbl.find interest page.Cpage.id with Not_found -> 0)
    | None -> assert false (* [make] builds the table for this kind *))
  | Platinum _ | Always_replicate | Never_move | Migrate_only | Uniform_system -> 0

let default_names =
  [
    "platinum";
    "platinum-thaw";
    "always-replicate";
    "static-place";
    "uniform-system";
    "migrate-only";
    "bolosky";
    "competitive";
  ]

let of_string ~t1 = function
  | "platinum" -> Ok (make ~t1 (Platinum { thaw_on_fault = false }))
  | "platinum-thaw" -> Ok (make ~t1 (Platinum { thaw_on_fault = true }))
  | "always-replicate" -> Ok (make ~t1 Always_replicate)
  | "static-place" -> Ok (make ~t1 Never_move)
  | "uniform-system" -> Ok (make ~t1 Uniform_system)
  | "migrate-only" -> Ok (make ~t1 Migrate_only)
  | "bolosky" -> Ok (make ~t1 (Bolosky { max_migrations = 4 }))
  | "competitive" -> Ok (make ~t1 (Competitive { threshold = 3 }))
  | s -> Error (Printf.sprintf "unknown policy %S (expected one of: %s)" s (String.concat ", " default_names))
