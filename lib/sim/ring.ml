type 'a t = {
  slots : 'a option array;
  mutable pushed : int;  (* total pushes ever; head = pushed mod capacity *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make capacity None; pushed = 0 }

let pushed t = t.pushed
let length t = Int.min t.pushed (Array.length t.slots)

let push t x =
  t.slots.(t.pushed mod Array.length t.slots) <- Some x;
  t.pushed <- t.pushed + 1

let fold t f init =
  let cap = Array.length t.slots in
  let n = length t in
  let first = t.pushed - n in
  let acc = ref init in
  for i = 0 to n - 1 do
    match t.slots.((first + i) mod cap) with
    | Some x -> acc := f !acc x
    | None -> assert false
  done;
  !acc

let to_list t = List.rev (fold t (fun acc x -> x :: acc) [])
