let initial_backoff = 1_000
let max_backoff = 100_000

let spin_until pred =
  let rec loop backoff =
    if not (pred ()) then begin
      Api.compute backoff;
      loop (Int.min (backoff * 2) max_backoff)
    end
  in
  loop initial_backoff

module Spinlock = struct
  type t = { lock_addr : int }

  let make ?zone () = { lock_addr = Api.alloc ?zone 1 }
  let of_addr lock_addr = { lock_addr }

  let try_acquire t = Api.rmw t.lock_addr (fun v -> if v = 0 then 1 else v) = 0

  let acquire t =
    while not (try_acquire t) do
      (* Read-spin while held; only retry the atomic op when free. *)
      spin_until (fun () -> Api.read t.lock_addr = 0)
    done

  let release t = Api.write t.lock_addr 0

  let with_lock t f =
    acquire t;
    match f () with
    | v ->
      release t;
      v
    | exception e ->
      release t;
      raise e
end

module Event_count = struct
  type t = { ec_addr : int }

  let make ?zone () = { ec_addr = Api.alloc ?zone 1 }
  let of_addr ec_addr = { ec_addr }
  let advance t = ignore (Api.rmw t.ec_addr (fun v -> v + 1))
  let current t = Api.read t.ec_addr
  let await t target = spin_until (fun () -> Api.read t.ec_addr >= target)
end

module Barrier = struct
  type t = {
    parties : int;
    count_addr : int;
    gen_addr : int;
  }

  let make ?zone ~parties () =
    if parties <= 0 then invalid_arg "Barrier.make: parties must be positive";
    let count_addr = Api.alloc ?zone 1 in
    let gen_addr = Api.alloc ?zone 1 in
    { parties; count_addr; gen_addr }

  let of_addrs ~parties ~count_addr ~gen_addr =
    if parties <= 0 then invalid_arg "Barrier.of_addrs: parties must be positive";
    { parties; count_addr; gen_addr }

  let wait t =
    let gen = Api.read t.gen_addr in
    let arrived = Api.rmw t.count_addr (fun v -> v + 1) + 1 in
    if arrived = t.parties then begin
      Api.write t.count_addr 0;
      Api.write t.gen_addr (gen + 1)
    end
    else spin_until (fun () -> Api.read t.gen_addr <> gen)
end
