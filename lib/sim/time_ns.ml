type t = int

let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let to_float_s t = float_of_int t /. 1e9

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_float_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_float_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_s t)

let to_string t = Format.asprintf "%a" pp t
