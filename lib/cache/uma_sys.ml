module Machine = Platinum_machine.Machine
module Cache = Platinum_machine.Cache
module Memmodule = Platinum_machine.Memmodule
module Memsys = Platinum_kernel.Memsys
module Memtxn = Platinum_core.Memtxn

type params = {
  cache_words : int;
  line_words : int;
  t_hit : int;
  t_mem : int;
  bus_read_service : int;
  bus_write_service : int;
}

let sequent =
  {
    cache_words = 2_048;
    line_words = 4;
    t_hit = 150;
    t_mem = 500;
    bus_read_service = 1_000;
    bus_write_service = 600;
  }

type zone = {
  zname : string;
  zbase : int;
  zwords : int;
  mutable znext : int;
}

type t = {
  params : params;
  page_words : int;
  caches : Cache.t array;
  bus : Memmodule.t;  (* reuse the FIFO-contention server as the bus *)
  store : (int, int array) Hashtbl.t;  (* backing memory, by page *)
  mutable zones : zone array;
  mutable break_pt : int;  (* next free page for zones *)
}

let cache t p = t.caches.(p)
let bus_utilization t ~horizon = Memmodule.utilization t.bus ~horizon

let page_of t vaddr = vaddr / t.page_words

let backing t vaddr =
  let page = page_of t vaddr in
  match Hashtbl.find_opt t.store page with
  | Some a -> a
  | None ->
    let a = Array.make t.page_words 0 in
    Hashtbl.replace t.store page a;
    a

let load_word t vaddr = (backing t vaddr).(vaddr mod t.page_words)
let store_word t vaddr v = (backing t vaddr).(vaddr mod t.page_words) <- v

let snoop_invalidate t ~except ~addr =
  Array.iteri (fun p c -> if p <> except then Cache.invalidate_line c ~addr) t.caches

(* One word read: hit, or bus transaction filling a line. *)
let read_latency t ~now ~proc ~vaddr =
  let c = t.caches.(proc) in
  if Cache.lookup c ~addr:vaddr then t.params.t_hit
  else begin
    let start = Memmodule.acquire t.bus ~arrival:now ~service:t.params.bus_read_service in
    Cache.fill c ~addr:vaddr;
    (start - now) + t.params.bus_read_service + t.params.t_mem
  end

(* Write-through: the cache line is updated if present, memory always is,
   and other caches snoop-invalidate. *)
let write_latency t ~now ~proc ~vaddr =
  ignore (Cache.lookup t.caches.(proc) ~addr:vaddr);
  let start = Memmodule.acquire t.bus ~arrival:now ~service:t.params.bus_write_service in
  snoop_invalidate t ~except:proc ~addr:vaddr;
  (start - now) + t.params.bus_write_service

let new_zone t ~name ~pages =
  let base = t.break_pt in
  t.break_pt <- t.break_pt + pages;
  let z =
    { zname = name; zbase = base * t.page_words; zwords = pages * t.page_words; znext = 0 }
  in
  t.zones <- Array.append t.zones [| z |];
  Array.length t.zones - 1

let align_up x a = (x + a - 1) / a * a

let zone_alloc t ~zone ~words ~page_aligned =
  if zone < 0 || zone >= Array.length t.zones then
    invalid_arg (Printf.sprintf "Uma_sys: no zone %d" zone);
  let z = t.zones.(zone) in
  let start = if page_aligned then align_up z.znext t.page_words else z.znext in
  if start + words > z.zwords then
    failwith (Printf.sprintf "Uma_sys: zone %s exhausted" z.zname);
  z.znext <- start + words;
  z.zbase + start

(* The UMA machine has no block-transfer hardware: every transaction is
   a stream of word-sized bus operations, so every chunk loops per word (a
   word transaction is a one-word chunk), each word charged at [now] plus
   the latency of every earlier one. *)
let rec read_words t ~now ~proc data ~vaddr ~index ~words lat =
  if words = 0 then lat
  else begin
    let l = read_latency t ~now:(now + lat) ~proc ~vaddr in
    data.(index) <- load_word t vaddr;
    read_words t ~now ~proc data ~vaddr:(vaddr + 1) ~index:(index + 1) ~words:(words - 1)
      (lat + l)
  end

let rec write_words t ~now ~proc data ~vaddr ~index ~words lat =
  if words = 0 then lat
  else begin
    let l = write_latency t ~now:(now + lat) ~proc ~vaddr in
    store_word t vaddr data.(index);
    write_words t ~now ~proc data ~vaddr:(vaddr + 1) ~index:(index + 1) ~words:(words - 1)
      (lat + l)
  end

let chunk_cost t (c : Memtxn.chunk) ~now ~proc txn data =
  let vaddr = c.Memtxn.c_vaddr and index = c.Memtxn.c_index and words = c.Memtxn.c_words in
  match txn with
  | Memtxn.Rmw { f; _ } ->
    (* A locked bus transaction: read + write held together. *)
    let l1 = read_latency t ~now ~proc ~vaddr in
    let l2 = write_latency t ~now:(now + l1) ~proc ~vaddr in
    let old = load_word t vaddr in
    store_word t vaddr (f old);
    snoop_invalidate t ~except:proc ~addr:vaddr;
    data.(0) <- old;
    l1 + l2
  | Memtxn.Read _ | Memtxn.Block_read _ ->
    read_words t ~now ~proc data ~vaddr ~index ~words 0
  | Memtxn.Write _ | Memtxn.Block_write _ | Memtxn.Stride_write _ ->
    write_words t ~now ~proc data ~vaddr ~index ~words 0

let rec chunk_loop t c ~now ~proc txn data lat =
  let lat = lat + chunk_cost t c ~now:(now + lat) ~proc txn data in
  if Memtxn.next c then chunk_loop t c ~now ~proc txn data lat else lat

(* The UMA machine has one flat physical space: all "address spaces" share
   it (a threads-in-one-process model), and segments are just ranges. *)
let memsys t =
  let cursor = Memtxn.make_chunk () and word = [| 0 |] and value = ref 0 in
  let submit ~now ~proc ~aspace:_ txn =
    Memtxn.validate txn;
    let data =
      match txn with
      | Memtxn.Read _ | Memtxn.Rmw _ -> word
      | Memtxn.Write { value; _ } ->
        word.(0) <- value;
        word
      | Memtxn.Block_read { dst; _ } -> dst
      | Memtxn.Block_write { src; _ } | Memtxn.Stride_write { src; _ } -> src
    in
    let lat =
      if Memtxn.first cursor ~page_words:t.page_words txn then
        chunk_loop t cursor ~now ~proc txn data 0
      else 0
    in
    value := word.(0);
    lat
  in
  let aspace_count = ref 1 in
  {
    Memsys.page_words = t.page_words;
    submit;
    value;
    new_aspace =
      (fun () ->
        let id = !aspace_count in
        incr aspace_count;
        id);
    new_zone = (fun ~aspace:_ ~name ~pages -> new_zone t ~name ~pages);
    alloc = (fun ~zone ~words ~page_aligned -> zone_alloc t ~zone ~words ~page_aligned);
    new_segment =
      (fun ~name ~pages ->
        (* a segment is a zone whose base every space shares *)
        new_zone t ~name ~pages);
    map_segment =
      (fun ~aspace:_ ~segment ->
        zone_alloc t ~zone:segment ~words:0 ~page_aligned:true |> fun base -> base);
    advise = (fun ~now:_ ~proc:_ ~aspace:_ ~vaddr:_ ~len:_ _ -> 0);
    migrate_cost = (fun ~now:_ ~from_proc:_ ~to_proc:_ -> 50_000);
    (* The UMA machine has no directory protocol to gate eligibility on;
       every access keeps the full-suspend path. *)
    fastpath = None;
    remote = None;
  }

let create ~machine ~params ~page_words =
  let n = Machine.nprocs machine in
  let t =
    {
      params;
      page_words;
      caches =
        Array.init n (fun _ -> Cache.create ~words:params.cache_words ~line_words:params.line_words);
      bus = Memmodule.create ();
      store = Hashtbl.create 1024;
      zones = [||];
      break_pt = 16;
    }
  in
  (* Zone 0 is the default heap, as in the PLATINUM backend. *)
  ignore (new_zone t ~name:"heap" ~pages:4096);
  t
