type t = { mutable h : int64 }

let prime = 0x100000001b3L
let create () = { h = 0xcbf29ce484222325L }
let int t v = t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int v)) prime
let string t s = String.iter (fun ch -> int t (Char.code ch)) s
let to_hex t = Printf.sprintf "%016Lx" t.h
