module Api = Platinum_kernel.Api

(* Layout, in words from [base]:
     0  ticket   total slots ever claimed (producers fetch-and-add)
     1  head     total slots ever consumed (consumer-only writes)
     2  capacity (informational)
     3  slot_words (informational)
     4  .. slots, each [1 + slot_words] words: word 0 is the publish flag
        (0 = empty, ticket + 1 = published), then the payload.

   The flag carries the ticket, so the consumer can insist on consuming
   ticket h only when slot [h mod capacity] holds exactly ticket h — FIFO
   in claim order even when a later producer publishes first, and immune
   to lapping (a stale flag from a previous lap never matches). *)

type t = {
  base : int;
  words : int;
  capacity : int;
  slot_words : int;
  stride : int;
}

let header_words = 4

(* The backoff between polls when a producer finds the ring full or the
   consumer finds it empty. *)
let poll_ns = 2_000

let create ~slots ~slot_words () =
  if slots <= 0 then invalid_arg "Ring.create: slots must be positive";
  if slot_words <= 0 then invalid_arg "Ring.create: slot_words must be positive";
  let need = header_words + (slots * (1 + slot_words)) in
  let pw = Api.page_words () in
  let pages = (need + pw - 1) / pw in
  let base = Api.alloc_pages pages in
  (* Zero-fill the header and every flag word so the first lap starts
     from a known-empty ring (fresh pages zero-fill on first touch anyway;
     writing them also faults the pages in before traffic starts). *)
  Api.write base 0;
  Api.write (base + 1) 0;
  Api.write (base + 2) slots;
  Api.write (base + 3) slot_words;
  for s = 0 to slots - 1 do
    Api.write (base + header_words + (s * (1 + slot_words))) 0
  done;
  {
    base;
    words = pages * pw;
    capacity = slots;
    slot_words;
    stride = 1 + slot_words;
  }

let base t = t.base
let words t = t.words

let slot_addr t ticket = t.base + header_words + (ticket mod t.capacity * t.stride)

(* Fill and publish the slot claimed by [ticket]: wait (bounded-backoff
   poll — backpressure, not loss) until the consumer has freed it, write
   the payload words, then set the flag last so the consumer never sees a
   half-written request. *)
let publish t ticket payload =
  if Array.length payload <> t.slot_words then
    invalid_arg
      (Printf.sprintf "Ring.push: payload %d words, ring slots carry %d"
         (Array.length payload) t.slot_words);
  while ticket - Api.read (t.base + 1) >= t.capacity do
    Api.sleep poll_ns
  done;
  let slot = slot_addr t ticket in
  for i = 0 to t.slot_words - 1 do
    Api.write (slot + 1 + i) payload.(i)
  done;
  Api.write slot (ticket + 1)

let push t payload =
  let ticket = Api.rmw t.base (fun x -> x + 1) in
  publish t ticket payload

let pop t =
  let h = Api.read (t.base + 1) in
  let slot = slot_addr t h in
  while Api.read slot <> h + 1 do
    Api.sleep poll_ns
  done;
  let payload = Array.make t.slot_words 0 in
  for i = 0 to t.slot_words - 1 do payload.(i) <- Api.read (slot + 1 + i) done;
  Api.write slot 0;
  Api.write (t.base + 1) (h + 1);
  payload

let pending t = Api.read t.base - Api.read (t.base + 1)
