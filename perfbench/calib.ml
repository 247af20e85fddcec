(* Host-speed reference: a fixed loop that uses no code of the program,
   with the simulator's mix of work (a binary heap of timestamped
   closures, a hash table of short lists, minor-heap churn). main.ml
   times it around every round and reports host times as
   [measured /. reference *. nominal_s]: host seconds at the speed the
   machine has when one pass takes [nominal_s]. On a shared 2-core VM whose
   speed drifts by 25% over tens of seconds, the median of that ratio over
   a run's rounds spread by 2-6% of its median across ten runs, against
   9-18% for the raw best-of-rounds times. *)

type ev = { at : int; k : int -> int }

let steps = 60_000

let run () =
  let cap = 4096 in
  let heap = Array.make cap { at = 0; k = Fun.id } in
  let size = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push e =
    let i = ref !size in
    heap.(!i) <- e;
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).at > heap.(!i).at do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && heap.(l).at < heap.(!m).at then m := l;
      if l + 1 < !size && heap.(l + 1).at < heap.(!m).at then m := l + 1;
      if !m = !i then sifting := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let tbl = Hashtbl.create 4096 in
  let x = ref 0x2545F491 in
  let rand () =
    x := (!x * 1103515245) + 12345;
    (!x lsr 16) land 0x3FFFFFFF
  in
  for i = 1 to cap / 2 do
    push { at = rand (); k = (fun v -> v + i) }
  done;
  let acc = ref 0 in
  for step = 1 to steps do
    let e = pop () in
    acc := e.k !acc;
    let key = rand () land 0x3FFF in
    Hashtbl.replace tbl key (step :: Option.value ~default:[] (Hashtbl.find_opt tbl key));
    if step land 0x3FFF = 0 then Hashtbl.reset tbl;
    push { at = e.at + (rand () land 0xFFFF); k = (fun v -> v lxor step) }
  done;
  ignore (Sys.opaque_identity !acc)

(* One pass on the machine this benchmark was tuned on, in its fast phase. *)
let nominal_s = 0.02

(* Host CPU seconds of one pass. *)
let time () =
  let t0 = Sys.time () in
  run ();
  Sys.time () -. t0
