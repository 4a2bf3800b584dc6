type t = {
  zone_name : string;
  base : int;  (* virtual word address of the zone start *)
  words : int;
  page_words : int;
  mutable next : int;  (* offset of the next free word *)
}

let create aspace ~name ?(rights = Platinum_core.Rights.Read_write) ~pages () =
  if pages <= 0 then invalid_arg "Zone.create: pages must be positive";
  let _obj, base_page = Addr_space.map_new_object aspace ~name ~npages:pages ~rights in
  let pw = Addr_space.page_words aspace in
  { zone_name = name; base = base_page * pw; words = pages * pw; page_words = pw; next = 0 }

let align_up x a = (x + a - 1) / a * a

let alloc t ~words ?(page_aligned = false) () =
  if words <= 0 then invalid_arg "Zone.alloc: words must be positive";
  let start = if page_aligned then align_up t.next t.page_words else t.next in
  if start + words > t.words then
    failwith (Printf.sprintf "Zone.alloc: zone %s exhausted (%d + %d > %d words)" t.zone_name start words t.words);
  t.next <- start + words;
  t.base + start
