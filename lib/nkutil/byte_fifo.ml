(* Data chunks hold immutable strings: [write_string] queues the caller's
   string by reference and [write_bytes] copies into a fresh string nobody
   else sees, so a chunk's bytes never change once queued and [read] may
   hand a whole chunk back without copying it. *)
type chunk =
  | Data of { buf : string; mutable pos : int; mutable len : int }
  | Zeros of { mutable n : int }

type t = {
  q : chunk Queue.t;
  mutable total : int;
  (* Most recently queued chunk if it is a zero-run, for O(1) coalescing of
     consecutive synthetic writes (one logical run per burst instead of one
     chunk per segment). Only extended while it still holds bytes. *)
  mutable tail_zeros : chunk option;
}

let create () = { q = Queue.create (); total = 0; tail_zeros = None }

let length t = t.total

let is_empty t = t.total = 0

let write_string t s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Byte_fifo.write_string: slice out of bounds";
  if len > 0 then begin
    Queue.add (Data { buf = s; pos; len }) t.q;
    t.tail_zeros <- None;
    t.total <- t.total + len
  end

let write_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Byte_fifo.write_bytes: slice out of bounds";
  if len > 0 then write_string t (Bytes.sub_string b pos len) ~pos:0 ~len

let write t s = write_string t s ~pos:0 ~len:(String.length s)

let write_zeros t n =
  if n < 0 then invalid_arg "Byte_fifo.write_zeros: negative count";
  if n > 0 then begin
    (match t.tail_zeros with
    | Some (Zeros z) when z.n > 0 -> z.n <- z.n + n
    | Some _ | None ->
        let chunk = Zeros { n } in
        Queue.add chunk t.q;
        t.tail_zeros <- Some chunk);
    t.total <- t.total + n
  end

let next_run t =
  match Queue.peek_opt t.q with
  | None -> None
  | Some (Data d) -> Some (`Data d.len)
  | Some (Zeros z) -> Some (`Zeros z.n)

(* Dequeue up to [want] bytes, handing each leading run to [data buf pos
   take ~at] or [zeros take ~at] ([at] = bytes already consumed). *)
let rec consume_runs t want ~data ~zeros at =
  if at >= want || Queue.is_empty t.q then at
  else
    match Queue.peek t.q with
    | Data d ->
        let take = Int.min (want - at) d.len in
        data d.buf d.pos take ~at;
        d.pos <- d.pos + take;
        d.len <- d.len - take;
        if d.len = 0 then ignore (Queue.pop t.q);
        consume_runs t want ~data ~zeros (at + take)
    | Zeros z ->
        let take = Int.min (want - at) z.n in
        zeros take ~at;
        z.n <- z.n - take;
        if z.n = 0 then ignore (Queue.pop t.q);
        consume_runs t want ~data ~zeros (at + take)

let consume t want ~data ~zeros =
  let n = consume_runs t want ~data ~zeros 0 in
  t.total <- t.total - n;
  n

let read_into t out ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length out then
    invalid_arg "Byte_fifo.read_into: slice out of bounds";
  consume t (Int.min len t.total)
    ~data:(fun buf src take ~at -> Bytes.blit_string buf src out (pos + at) take)
    ~zeros:(fun take ~at -> Bytes.fill out (pos + at) take '\000')

let read t n =
  let n = Int.max 0 (Int.min n t.total) in
  match Queue.peek_opt t.q with
  | Some (Data d) when d.pos = 0 && d.len = n && String.length d.buf = n ->
      (* Whole-chunk fast path: the chunk is exactly the answer. *)
      ignore (Queue.pop t.q);
      t.total <- t.total - n;
      d.buf
  | _ ->
      let out = Bytes.create n in
      let got = read_into t out ~pos:0 ~len:n in
      assert (got = n);
      Bytes.unsafe_to_string out

let discard t n =
  consume t (Int.min (Int.max 0 n) t.total) ~data:(fun _ _ _ ~at:_ -> ()) ~zeros:(fun _ ~at:_ -> ())

let transfer ~src ~dst n =
  consume src (Int.min (Int.max 0 n) src.total)
    ~data:(fun buf pos take ~at:_ -> write_string dst buf ~pos ~len:take)
    ~zeros:(fun take ~at:_ -> write_zeros dst take)
