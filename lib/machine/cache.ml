type t = {
  line : int;
  nlines : int;
  tags : int array;  (* -1 = invalid; else the line-aligned address *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let create ~words ~line_words =
  if not (is_pow2 words && is_pow2 line_words && line_words <= words) then
    invalid_arg "Cache.create: sizes must be powers of two, line <= cache";
  {
    line = line_words;
    nlines = words / line_words;
    tags = Array.make (words / line_words) (-1);
    hit_count = 0;
    miss_count = 0;
  }

let line_addr t addr = addr land lnot (t.line - 1)
let index t addr = addr / t.line land (t.nlines - 1)

let lookup t ~addr =
  let hit = t.tags.(index t addr) = line_addr t addr in
  if hit then t.hit_count <- t.hit_count + 1 else t.miss_count <- t.miss_count + 1;
  hit

let fill t ~addr = t.tags.(index t addr) <- line_addr t addr

let invalidate_line t ~addr =
  let i = index t addr in
  if t.tags.(i) = line_addr t addr then t.tags.(i) <- -1

let invalidate_range t ~addr ~words =
  if words > 0 then begin
    let first = line_addr t addr in
    let last = line_addr t (addr + words - 1) in
    let a = ref first in
    while !a <= last do
      invalidate_line t ~addr:!a;
      a := !a + t.line
    done
  end

let flush t = Array.fill t.tags 0 t.nlines (-1)
let hits t = t.hit_count
let misses t = t.miss_count
