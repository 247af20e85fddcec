type extent = { offset : int; len : int }

type t = {
  (* Backing store for the region's payload bytes. The allocator hands out
     offsets over the full [size], but the [bytes] itself is materialized
     lazily: regions default to 64 MB per VM and a first-fit allocator keeps
     the working set near offset 0, so eagerly zero-filling the whole span
     (the former [Bytes.create size]) dominated experiment setup wall-clock.
     [Bytes.create] zero-fills, and growth copies the old prefix, so the
     observable contents are identical to an eagerly allocated region. *)
  mutable buf : bytes;
  size : int;
  (* The free list as a hole array: holes [0, n_holes) sorted by offset,
     never adjacent (a free coalesces with its neighbours), updated in
     place so keeping the free list allocates nothing. *)
  mutable hole_off : int array;
  mutable hole_len : int array;
  mutable n_holes : int;
  mutable in_use : int;
  live : (int, int) Hashtbl.t; (* offset -> len, for double-free detection *)
  mon : Nkmon.t;
  region : string;
}

(* Grow the backing store to cover at least [need] bytes (next power of two,
   capped at the region size). *)
let ensure_backing t need =
  if need > Bytes.length t.buf then begin
    let cap = ref (Int.max 1 (Bytes.length t.buf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let cap = Int.min !cap t.size in
    let fresh = Bytes.create cap in
    Bytes.blit t.buf 0 fresh 0 (Bytes.length t.buf);
    t.buf <- fresh
  end

let create ?(page_size = 2 * 1024 * 1024) ?(pages = 32) ?(mon = Nkmon.null ())
    ?(region = "hugepages") () =
  let size = page_size * pages in
  let t =
    {
      buf = Bytes.create (Int.min size 4096);
      size;
      hole_off = Array.make 16 0;
      hole_len = Array.make 16 0;
      n_holes = 1;
      in_use = 0;
      live = Hashtbl.create 64;
      mon;
      region;
    }
  in
  t.hole_len.(0) <- size;
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"bytes_in_use" (fun () ->
      float_of_int t.in_use);
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"allocations" (fun () ->
      float_of_int (Hashtbl.length t.live));
  (* Capacity next to bytes_in_use so pressure (in_use / capacity) is
     computable from a registry snapshot alone — the Nkobs hugepage
     pressure alert reads exactly these two rows. *)
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"capacity_bytes" (fun () ->
      float_of_int t.size);
  t

let capacity t = t.size

let bytes_in_use t = t.in_use

let allocations t = Hashtbl.length t.live

(* Round to 64-byte cache lines so adjacent extents don't false-share. *)
let round n = (n + 63) land lnot 63

(* Remove hole [i], closing the gap. *)
let remove_hole t i =
  let tail = t.n_holes - i - 1 in
  Array.blit t.hole_off (i + 1) t.hole_off i tail;
  Array.blit t.hole_len (i + 1) t.hole_len i tail;
  t.n_holes <- t.n_holes - 1

(* Open a hole at index [i], growing the arrays when full. *)
let insert_hole t i ~off ~len =
  if t.n_holes = Array.length t.hole_off then begin
    let grow a =
      let a' = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 a' 0 t.n_holes;
      a'
    in
    t.hole_off <- grow t.hole_off;
    t.hole_len <- grow t.hole_len
  end;
  let tail = t.n_holes - i in
  Array.blit t.hole_off i t.hole_off (i + 1) tail;
  Array.blit t.hole_len i t.hole_len (i + 1) tail;
  t.hole_off.(i) <- off;
  t.hole_len.(i) <- len;
  t.n_holes <- t.n_holes + 1

(* First fit: index of the lowest-offset hole of at least [need] bytes, or
   [n_holes]. *)
let rec first_fit t need i =
  if i >= t.n_holes || t.hole_len.(i) >= need then i else first_fit t need (i + 1)

(* Index of the first hole above [off] (binary search over [lo, hi)). *)
let rec hole_above t off lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if t.hole_off.(mid) > off then hole_above t off lo mid else hole_above t off (mid + 1) hi

let alloc t n =
  if n <= 0 then invalid_arg "Hugepages.alloc: size must be positive";
  let need = round n in
  let i = first_fit t need 0 in
  if i >= t.n_holes then None
  else begin
    let off = t.hole_off.(i) in
    if t.hole_len.(i) > need then begin
      t.hole_off.(i) <- off + need;
      t.hole_len.(i) <- t.hole_len.(i) - need
    end
    else remove_hole t i;
    t.in_use <- t.in_use + need;
    Hashtbl.replace t.live off need;
    if Nkmon.tracing t.mon then
      Nkmon.event t.mon (Nkmon.Trace.Hugepage_alloc { region = t.region; offset = off; len = n });
    Some { offset = off; len = n }
  end

let free t e =
  match Hashtbl.find_opt t.live e.offset with
  | None -> invalid_arg "Hugepages.free: extent is not live (double free?)"
  | Some rounded ->
      Hashtbl.remove t.live e.offset;
      t.in_use <- t.in_use - rounded;
      if Nkmon.tracing t.mon then
        Nkmon.event t.mon
          (Nkmon.Trace.Hugepage_free { region = t.region; offset = e.offset; len = e.len });
      (* [i] = index of the first hole above the freed extent; merge with
         the hole just below and/or the one just above when they touch. *)
      let i = hole_above t e.offset 0 t.n_holes in
      let joins_prev = i > 0 && t.hole_off.(i - 1) + t.hole_len.(i - 1) = e.offset in
      let joins_next = i < t.n_holes && e.offset + rounded = t.hole_off.(i) in
      if joins_prev && joins_next then begin
        t.hole_len.(i - 1) <- t.hole_len.(i - 1) + rounded + t.hole_len.(i);
        remove_hole t i
      end
      else if joins_prev then t.hole_len.(i - 1) <- t.hole_len.(i - 1) + rounded
      else if joins_next then begin
        t.hole_off.(i) <- e.offset;
        t.hole_len.(i) <- t.hole_len.(i) + rounded
      end
      else insert_hole t i ~off:e.offset ~len:rounded

let write_string t e s ~len =
  if len < 0 || len > String.length s || len > e.len then
    invalid_arg "Hugepages.write_string: slice out of string or extent";
  ensure_backing t (e.offset + len);
  Bytes.blit_string s 0 t.buf e.offset len

let write_payload t e payload =
  let len = Tcpstack.Types.payload_len payload in
  if len > e.len then invalid_arg "Hugepages.write_payload: payload larger than extent";
  match payload with
  | Tcpstack.Types.Zeros _ -> ()
  | Tcpstack.Types.Data s -> write_string t e s ~len

let read_payload t e ~pos ~len ~synthetic =
  if pos < 0 || len < 0 || pos + len > e.len then
    invalid_arg "Hugepages.read_payload: slice out of extent";
  if synthetic then Tcpstack.Types.Zeros len
  else begin
    ensure_backing t (e.offset + pos + len);
    Tcpstack.Types.Data (Bytes.sub_string t.buf (e.offset + pos) len)
  end

let blit_between ~src ~src_extent ~dst ~dst_extent ~len =
  if len > src_extent.len || len > dst_extent.len then
    invalid_arg "Hugepages.blit_between: length exceeds an extent";
  ensure_backing src (src_extent.offset + len);
  ensure_backing dst (dst_extent.offset + len);
  Bytes.blit src.buf src_extent.offset dst.buf dst_extent.offset len
