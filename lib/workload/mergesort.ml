module Api = Platinum_kernel.Api

type params = {
  n : int;
  nprocs : int;
  chunk : int;
  seed : int;
  verify : bool;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

(* Comparison/move cost per element in the merge loops. *)
let compute_ns_per_element = 1_500

let params ?(n = 65_536) ?(chunk = 256) ?(seed = 7) ?(verify = true) ~nprocs () =
  if not (is_pow2 nprocs) then invalid_arg "Mergesort.params: nprocs must be a power of two";
  if chunk <= 0 then invalid_arg "Mergesort.params: chunk must be positive";
  let n = (n + nprocs - 1) / nprocs * nprocs in
  { n; nprocs; chunk; seed; verify }

let input_value p i =
  let h = ((p.seed * 0x9E3779B9) + (i * 0x85EBCA6B)) land max_int in
  let h = h lxor (h lsr 17) in
  let h = h * 0xC2B2AE35 land max_int in
  (h lxor (h lsr 13)) land 0xFFFFFF

(* Merge [len_a]+[len_b] words from two simulated arrays into [dst],
   streaming through bounded buffers so one merge is O(chunk) live data,
   not O(n). *)
let stream_merge p ~src_a ~len_a ~src_b ~len_b ~dst =
  let out = Array.make p.chunk 0 in
  let buf_a = ref [||] and buf_b = ref [||] in
  let pos_a = ref 0 and pos_b = ref 0 in  (* consumed from current buffers *)
  let read_a = ref 0 and read_b = ref 0 in  (* consumed from inputs *)
  let written = ref 0 in
  let out_fill = ref 0 in
  let refill_a () =
    if !pos_a >= Array.length !buf_a && !read_a < len_a then begin
      let n = Int.min p.chunk (len_a - !read_a) in
      buf_a := Api.block_read (src_a + !read_a) n;
      read_a := !read_a + n;
      pos_a := 0
    end
  in
  let refill_b () =
    if !pos_b >= Array.length !buf_b && !read_b < len_b then begin
      let n = Int.min p.chunk (len_b - !read_b) in
      buf_b := Api.block_read (src_b + !read_b) n;
      read_b := !read_b + n;
      pos_b := 0
    end
  in
  let flush () =
    if !out_fill > 0 then begin
      Api.block_write (dst + !written) (Array.sub out 0 !out_fill);
      Api.compute (!out_fill * compute_ns_per_element);
      written := !written + !out_fill;
      out_fill := 0
    end
  in
  let emit v =
    out.(!out_fill) <- v;
    incr out_fill;
    if !out_fill = p.chunk then flush ()
  in
  let a_live () =
    refill_a ();
    !pos_a < Array.length !buf_a
  in
  let b_live () =
    refill_b ();
    !pos_b < Array.length !buf_b
  in
  let rec loop () =
    match a_live (), b_live () with
    | false, false -> flush ()
    | true, false ->
      emit !buf_a.(!pos_a);
      incr pos_a;
      loop ()
    | false, true ->
      emit !buf_b.(!pos_b);
      incr pos_b;
      loop ()
    | true, true ->
      let va = !buf_a.(!pos_a) and vb = !buf_b.(!pos_b) in
      if va <= vb then begin
        emit va;
        incr pos_a
      end
      else begin
        emit vb;
        incr pos_b
      end;
      loop ()
  in
  loop ()

let ceil_log2 x =
  let rec go acc v = if v >= x then acc else go (acc + 1) (v * 2) in
  go 0 1

let make p =
  let out = Outcome.create () in
  let start_ns = ref 0 in
  let main () =
    let n = p.n and nprocs = p.nprocs in
    let seg = n / nprocs in
    let src = Api.alloc ~page_aligned:true n in
    let buf_a = Api.alloc ~page_aligned:true n in
    let buf_b = Api.alloc ~page_aligned:true n in
    (* The unsorted input "arrives" on processor 0's node, as in a program
       that just read it from a device. *)
    let stride = 4096 in
    let i = ref 0 in
    while !i < n do
      let len = Int.min stride (n - !i) in
      Api.block_write (src + !i) (Array.init len (fun j -> input_value p (!i + j)));
      i := !i + len
    done;
    start_ns := Api.now ();
    (* Phase 0: each leaf sorts its segment with bottom-up merge passes
       streamed through (simulated) memory — the real access pattern of
       Anderson's program, and the traffic that swamps a small
       write-through cache.  Runs alternate between the segment's region
       of buf_a and buf_b; a final copy lands the result in buf_a. *)
    let leaf me =
      let base_src = src + (me * seg) in
      let a = buf_a + (me * seg) and b = buf_b + (me * seg) in
      (* First pass: merge width-1 runs from the input into buf_a. *)
      let width = ref 1 in
      let from_b = ref b and to_b = ref a in
      let first = ref true in
      while !width < seg do
        let src_base = if !first then base_src else !from_b in
        let off = ref 0 in
        while !off < seg do
          let len_a = Int.min !width (seg - !off) in
          let len_b = Int.min !width (seg - !off - len_a) in
          stream_merge p ~src_a:(src_base + !off) ~len_a ~src_b:(src_base + !off + len_a)
            ~len_b ~dst:(!to_b + !off);
          off := !off + len_a + len_b
        done;
        first := false;
        width := !width * 2;
        let tmp = !from_b in
        from_b := !to_b;
        to_b := tmp
      done;
      (* [from_b] holds the sorted run (it was the last destination). *)
      if seg = 1 then begin
        let d = Api.block_read base_src 1 in
        Api.block_write a d
      end
      else if !from_b <> a then begin
        let d = Api.block_read !from_b seg in
        Api.block_write a d
      end
    in
    Api.spawn_join_all
      ~procs:(List.init nprocs (fun i -> i))
      (List.init nprocs (fun me _ -> leaf me));
    (* Tree phases: at level l, threads merge 2^l-segment runs pairwise,
       alternating buffers.  The merger runs on the left run's processor. *)
    let levels = ceil_log2 nprocs in
    let from_buf = ref buf_a and to_buf = ref buf_b in
    for level = 0 to levels - 1 do
      let run = seg lsl level in
      let mergers = nprocs lsr (level + 1) in
      let merge_one idx =
        let base = idx * 2 * run in
        stream_merge p ~src_a:(!from_buf + base) ~len_a:run ~src_b:(!from_buf + base + run)
          ~len_b:run ~dst:(!to_buf + base)
      in
      Api.spawn_join_all
        ~procs:(List.init mergers (fun idx -> idx * 2 * (1 lsl level)))
        (List.init mergers (fun idx _ -> merge_one idx));
      let tmp = !from_buf in
      from_buf := !to_buf;
      to_buf := tmp
    done;
    out.Outcome.work_ns <- Api.now () - !start_ns;
    if p.verify then begin
      let result = !from_buf in
      let reference = Array.init n (fun i -> input_value p i) in
      Array.sort compare reference;
      let i = ref 0 in
      while !i < n && out.Outcome.ok do
        let len = Int.min 4096 (n - !i) in
        let got = Api.block_read (result + !i) len in
        for j = 0 to len - 1 do
          if got.(j) <> reference.(!i + j) then
            Outcome.fail out "mergesort: element %d is %d, expected %d" (!i + j) got.(j)
              reference.(!i + j)
        done;
        i := !i + len
      done
    end
  in
  (out, main)
