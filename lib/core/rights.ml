type t =
  | No_access
  | Read_only
  | Read_write

let allows_read = function
  | No_access -> false
  | Read_only | Read_write -> true

let allows_write = function
  | No_access | Read_only -> false
  | Read_write -> true

let rank = function
  | No_access -> 0
  | Read_only -> 1
  | Read_write -> 2

let min a b = if rank a <= rank b then a else b
let equal a b = rank a = rank b

let to_string = function
  | No_access -> "none"
  | Read_only -> "ro"
  | Read_write -> "rw"
