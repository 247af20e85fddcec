(* Engine, CPU model and pressure estimator tests. *)

module E = Sim.Engine
module Cpu = Sim.Cpu

let engine_ordering () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~delay:0.3 (fun () -> log := "c" :: !log));
  ignore (E.schedule e ~delay:0.1 (fun () -> log := "a" :: !log));
  ignore (E.schedule e ~delay:0.2 (fun () -> log := "b" :: !log));
  E.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let engine_same_time_fifo () =
  let e = E.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (E.schedule e ~delay:0.1 (fun () -> log := i :: !log))
  done;
  E.run e;
  Alcotest.(check (list int)) "insertion order at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let engine_cancel () =
  let e = E.create () in
  let fired = ref false in
  let h = E.schedule e ~delay:0.1 (fun () -> fired := true) in
  E.Timer.cancel h;
  E.run e;
  Alcotest.(check bool) "cancelled event must not run" false !fired

let engine_until () =
  let e = E.create () in
  let fired = ref 0 in
  ignore (E.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (E.schedule e ~delay:3.0 (fun () -> incr fired));
  E.run e ~until:2.0;
  Alcotest.(check int) "only events before horizon" 1 !fired;
  if E.now e < 2.0 then Alcotest.fail "clock must reach the horizon"

let engine_nested_schedule () =
  let e = E.create () in
  let depth = ref 0 in
  let rec go n = if n > 0 then ignore (E.schedule e ~delay:0.01 (fun () -> incr depth; go (n - 1))) in
  go 10;
  E.run e;
  Alcotest.(check int) "chain of nested events" 10 !depth

(* ---- timing-wheel order oracle ----------------------------------------- *)

(* The engine's pending set is a hierarchical timing wheel, but its contract
   is the seed binary heap's exact (time, insertion-seq) execution order.
   Reference model: that heap, rebuilt here on Nkutil.Heap with the same
   clamping/cancellation semantics. Both run the same scripted ~100K-event
   schedule — dense sub-tick delays, exact ties, zero and negative delays,
   multi-second overflow delays, events scheduled from inside callbacks, and
   cancellations — and must log byte-identical id sequences. *)

type 'h sched_api = {
  api_schedule : delay:float -> (unit -> unit) -> 'h;
  api_cancel : 'h -> unit;
  api_run : unit -> unit;
}

module Ref_engine = struct
  type ev = {
    time : float;
    seq : int;
    f : unit -> unit;
    mutable cancelled : bool;
  }

  type t = { heap : ev Nkutil.Heap.t; mutable clock : float; mutable next_seq : int }

  let dummy = { time = 0.0; seq = 0; f = ignore; cancelled = true }

  let leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

  let create () =
    { heap = Nkutil.Heap.create ~dummy ~leq (); clock = 0.0; next_seq = 0 }

  let schedule t ~delay f =
    let at = Float.max (t.clock +. delay) t.clock in
    let ev = { time = at; seq = t.next_seq; f; cancelled = false } in
    t.next_seq <- t.next_seq + 1;
    Nkutil.Heap.add t.heap ev;
    ev

  let run t =
    let continue = ref true in
    while !continue do
      match Nkutil.Heap.pop_min t.heap with
      | None -> continue := false
      | Some ev ->
          if not ev.cancelled then begin
            t.clock <- ev.time;
            ev.f ()
          end
    done
end

(* Delay distribution keyed only on the event id, so both runs compute the
   same schedule without sharing any mutable generator state. *)
let scripted_delay id =
  let rng = Nkutil.Rng.create ~seed:(0xF00D + id) in
  match id land 15 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Nkutil.Rng.float_range rng 0.0 50e-6 (* dense, sub-slot *)
  | 6 | 7 | 8 -> float_of_int (Nkutil.Rng.int rng 40) *. 1e-6 (* quantized: exact ties *)
  | 9 | 10 -> 0.0
  | 11 -> -1e-6 (* negative: clamps to now *)
  | 12 | 13 -> Nkutil.Rng.float_range rng 0.0 0.05 (* mid-range, upper wheel levels *)
  | _ -> Nkutil.Rng.float_range rng 0.5 10.0 (* far future: overflow heap *)

let run_script (type h) (api : h sched_api) ~total =
  let order = ref [] in
  let spawned = ref 0 in
  let handles : (int, h) Hashtbl.t = Hashtbl.create 1024 in
  let rec spawn depth =
    if !spawned < total then begin
      let id = !spawned in
      incr spawned;
      let h = api.api_schedule ~delay:(scripted_delay id) (fun () -> fire id depth) in
      Hashtbl.replace handles id h
    end
  and fire id depth =
    order := id :: !order;
    (* Some events fan out into fresh events mid-run (exercising seq
       assignment while the wheel cursor has advanced)... *)
    if depth < 4 && id land 7 <= 2 then begin
      spawn (depth + 1);
      spawn (depth + 1)
    end;
    (* ...and some cancel a not-necessarily-pending later event. *)
    if id land 15 = 3 then
      match Hashtbl.find_opt handles (id + 5) with
      | Some h -> api.api_cancel h
      | None -> ()
  in
  (* Seed enough roots that fan-out reaches [total]. *)
  for _ = 1 to total / 2 do
    spawn 0
  done;
  api.api_run ();
  List.rev !order

let check_same_order ~wheel_order ~heap_order =
  Alcotest.(check int) "every live event fired" (List.length heap_order)
    (List.length wheel_order);
  if not (List.equal Int.equal wheel_order heap_order) then begin
    let rec first_diff i a b =
      match (a, b) with
      | x :: a', y :: b' -> if x <> y then (i, x, y) else first_diff (i + 1) a' b'
      | _ -> (i, -1, -1)
    in
    let i, x, y = first_diff 0 wheel_order heap_order in
    Alcotest.failf "execution order diverges at position %d: wheel=%d heap=%d" i x y
  end

let ref_api r =
  {
    api_schedule = (fun ~delay f -> Ref_engine.schedule r ~delay f);
    api_cancel = (fun ev -> ev.Ref_engine.cancelled <- true);
    api_run = (fun () -> Ref_engine.run r);
  }

let wheel_matches_heap_oracle () =
  let total = 100_000 in
  let wheel_order =
    let e = E.create () in
    run_script
      {
        api_schedule = (fun ~delay f -> E.schedule e ~delay f);
        api_cancel = E.Timer.cancel;
        api_run = (fun () -> E.run e);
      }
      ~total
  in
  let heap_order = run_script (ref_api (Ref_engine.create ())) ~total in
  check_same_order ~wheel_order ~heap_order

(* ---- cancelled timers and wheel compaction ------------------------------ *)

(* Engine.compact_floor: the smallest pending count at which the wheel
   compacts its cancelled entries. *)
let compact_floor = 1024

(* Cancel-heavy script, the shape TCP retransmission timers give the
   engine: [flows] flows each run a chain of short-delay activity events,
   and every activity re-arms its flow's far "RTO" timer (cancel +
   schedule), except one in 16 that leaves the old timer armed to fire.
   RTO delays are 0.2-1 s with exact ties across flows, a few land past the
   wheel's 128 s span, in the overflow heap. Returns the execution order
   and the share of RTO timers that were cancelled. *)
let run_rto_script (type h) (api : h sched_api) ~total =
  let flows = 32 in
  let order = ref [] in
  let next_id = ref 0 in
  let rto : h option array = Array.make flows None in
  let armed = ref 0 and cancelled = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let activity_delay id =
    if id land 1 = 0 then float_of_int (id mod 40) *. 1e-6 (* exact ties *)
    else Nkutil.Rng.float_range (Nkutil.Rng.create ~seed:(0xBEEF + id)) 0.0 50e-6
  in
  let rto_delay rid =
    if rid land 255 = 1 then 200.0 (* past level 2: overflow *)
    else if rid land 1 = 0 then 0.2 +. (float_of_int (rid mod 64) *. 0.0125)
    else Nkutil.Rng.float_range (Nkutil.Rng.create ~seed:(0xCAFE + rid)) 0.2 1.0
  in
  let rec activity flow =
    let id = fresh () in
    ignore
      (api.api_schedule ~delay:(activity_delay id) (fun () ->
           order := id :: !order;
           (match rto.(flow) with
           | Some h when id land 15 <> 0 ->
               api.api_cancel h;
               incr cancelled
           | _ -> ());
           let rid = fresh () in
           rto.(flow) <-
             Some (api.api_schedule ~delay:(rto_delay rid) (fun () -> order := rid :: !order));
           incr armed;
           if !next_id < total then activity flow))
  in
  for flow = 0 to flows - 1 do
    activity flow
  done;
  api.api_run ();
  (List.rev !order, float_of_int !cancelled /. float_of_int !armed)

(* Compaction unlinks cancelled events mid-run; the schedule must not
   notice. A schedule call that does not raise [pending] is a compaction,
   and at least one must happen after the first event ran. *)
let compaction_keeps_heap_order () =
  let total = 100_000 in
  let mid_run_compactions = ref 0 in
  let wheel_order, cancelled_share =
    let e = E.create () in
    run_rto_script
      {
        api_schedule =
          (fun ~delay f ->
            let before = E.pending e in
            let h = E.schedule e ~delay f in
            if E.pending e <= before && E.events_executed e > 0 then incr mid_run_compactions;
            h);
        api_cancel = E.Timer.cancel;
        api_run = (fun () -> E.run e);
      }
      ~total
  in
  let heap_order, _ = run_rto_script (ref_api (Ref_engine.create ())) ~total in
  if cancelled_share < 0.9 then
    Alcotest.failf "script must cancel >= 90%% of far timers, cancelled %.1f%%"
      (100.0 *. cancelled_share);
  if !mid_run_compactions = 0 then Alcotest.fail "no compaction ran mid-script";
  check_same_order ~wheel_order ~heap_order

(* A cancelled timer must not keep its callback's captures alive while its
   record still waits in a far wheel bucket; a live one must. *)
let cancel_releases_callback () =
  let e = E.create () in
  let arm delay =
    let block = Bytes.make 64 'x' in
    let w = Weak.create 1 in
    Weak.set w 0 (Some block);
    (E.schedule e ~delay (fun () -> ignore (Sys.opaque_identity block)), w)
  in
  let arm = Sys.opaque_identity arm in
  let gone, gone_w = arm 5.0 in
  let _live, live_w = arm 5.0 in
  E.Timer.cancel gone;
  Gc.full_major ();
  Alcotest.(check int) "both records still pending" 2 (E.pending e);
  Alcotest.(check bool) "live timer keeps its capture" true (Weak.check live_w 0);
  Alcotest.(check bool) "cancelled timer released its capture" false (Weak.check gone_w 0);
  E.run e;
  Alcotest.(check int) "only the live timer ran" 1 (E.events_executed e)

(* An RTO-style loop: [k] connections, each re-armed every 640 us (one
   step every 10 us, round robin), 100K arms in all. One arm in 7 is short
   enough to fire before its re-arm, and one far arm in 256 is left armed
   instead of cancelled, so far timers also fire from wheel buckets that
   compaction has walked. Pending must stay within 2 x live + floor
   (without compaction it would hold ~100K cancelled timers), and every
   timer that was not cancelled fires exactly at its deadline. *)
let rearm_loop_bounded () =
  let e = E.create () in
  let k = 64 and arms = 100_000 in
  let deadline = Array.make arms 0.0 in
  let killed = Array.make arms false in
  let fired = Array.make arms false in
  let current = Array.make k None in
  let live = ref 0 and max_live = ref 0 and peak = ref 0 in
  let arm n =
    let delay =
      if n mod 7 = 0 then 100e-6 else 0.2 +. (float_of_int ((n * 7919) mod 97) *. 0.008)
    in
    deadline.(n) <- E.now e +. delay;
    incr live;
    E.schedule e ~delay (fun () ->
        if killed.(n) then Alcotest.failf "cancelled timer %d fired" n;
        if E.now e <> deadline.(n) then
          Alcotest.failf "timer %d fired at %.9f, deadline %.9f" n (E.now e) deadline.(n);
        fired.(n) <- true;
        decr live)
  in
  let rec drive n =
    if n < arms then begin
      let c = n mod k in
      (match current.(c) with
      | Some (h, m) when (not fired.(m)) && m mod 256 <> 5 ->
          E.Timer.cancel h;
          killed.(m) <- true;
          decr live
      | _ -> ());
      current.(c) <- Some (arm n, n);
      (* + 1: the drive event itself *)
      max_live := Int.max !max_live (!live + 1);
      peak := Int.max !peak (E.pending e);
      ignore (E.schedule e ~delay:10e-6 (fun () -> drive (n + 1)))
    end
  in
  drive 0;
  E.run e;
  let bound = (2 * !max_live) + compact_floor in
  if !peak > bound then
    Alcotest.failf "pending peaked at %d, bound 2 x %d live + floor = %d" !peak !max_live bound;
  Array.iteri
    (fun n f -> if not (f || killed.(n)) then Alcotest.failf "live timer %d never fired" n)
    fired

(* Compaction runs while the near heap holds one slot's events, some of
   them cancelled; it must leave that heap to its lazy discard. 64 events
   at distinct times inside one 119 ns slot, scheduled in a scrambled
   order (so the heap array is not sorted). The first to run cancels one
   in four of the others, already in the near heap, then schedules and
   cancels enough far timers to compact. *)
let compaction_spares_near_heap () =
  let e = E.create () in
  let n = 64 in
  (* A slot boundary (1024 ticks of 2^-23 s), so every event shares it. *)
  let base = 1024.0 /. 8388608.0 in
  let log = ref [] in
  let handles = Array.make n None in
  let first () =
    Array.iteri
      (fun j h -> if j mod 4 = 1 then Option.iter E.Timer.cancel h)
      handles;
    for _ = 1 to 2 * compact_floor do
      E.Timer.cancel (E.schedule e ~delay:0.5 ignore)
    done
  in
  for i = 0 to n - 1 do
    let j = i * 37 mod n in
    let f () =
      log := j :: !log;
      if j = 0 then first ()
    in
    handles.(j) <- Some (E.schedule_at e ~at:(base +. (float_of_int j *. 1e-10)) f)
  done;
  E.run e;
  let expected = List.filter (fun j -> j mod 4 <> 1) (List.init n Fun.id) in
  Alcotest.(check (list int)) "live events in (time, seq) order" expected (List.rev !log)

let cpu_fifo_and_accounting () =
  let e = E.create () in
  let core = Cpu.create e ~freq_ghz:1.0 ~name:"c0" () in
  let finish_times = ref [] in
  (* 1 GHz -> 1e9 cycles/s; 1e6 cycles = 1 ms *)
  Cpu.exec core ~cycles:1e6 (fun () -> finish_times := E.now e :: !finish_times);
  Cpu.exec core ~cycles:2e6 (fun () -> finish_times := E.now e :: !finish_times);
  E.run e;
  (match List.rev !finish_times with
  | [ t1; t2 ] ->
      if Float.abs (t1 -. 0.001) > 1e-9 then Alcotest.failf "first at %f" t1;
      if Float.abs (t2 -. 0.003) > 1e-9 then Alcotest.failf "second queued: %f" t2
  | _ -> Alcotest.fail "expected two completions");
  if Float.abs (Cpu.busy_cycles core -. 3e6) > 1.0 then Alcotest.fail "busy cycles";
  if Float.abs (Cpu.busy_seconds core -. 0.003) > 1e-9 then Alcotest.fail "busy seconds"

let cpu_set_pick_stable () =
  let e = E.create () in
  let set = Cpu.Set.create e ~name:"s" ~n:4 () in
  let a = Cpu.Set.pick set ~hash:12345 in
  let b = Cpu.Set.pick set ~hash:12345 in
  if not (a == b) then Alcotest.fail "pick must be deterministic"

let pressure_decays () =
  let e = E.create () in
  let p = Sim.Pressure.create e ~tau:0.01 () in
  Sim.Pressure.observe p ~bits:1e6;
  let r0 = Sim.Pressure.rate_bps p in
  ignore (E.schedule e ~delay:0.05 (fun () -> ()));
  E.run e;
  let r1 = Sim.Pressure.rate_bps p in
  if not (r0 > 0.0 && r1 < r0 /. 100.0) then
    Alcotest.failf "pressure must decay: %f -> %f" r0 r1

let pressure_copy_cost_grows () =
  let e = E.create () in
  let p = Sim.Pressure.create e () in
  let idle = Sim.Pressure.hugepage_copy_cost p ~base:0.02 ~contention:0.2 in
  (* Push the estimate to ~100 Gb/s. *)
  Sim.Pressure.observe p ~bits:1e9;
  let busy = Sim.Pressure.hugepage_copy_cost p ~base:0.02 ~contention:0.2 in
  if busy <= idle then Alcotest.fail "cost must grow with pressure"

let contention_mult () =
  let m = Sim.Cost_profile.contention_mult ~factor:0.1 ~cores:4 in
  if Float.abs (m -. 1.3) > 1e-9 then Alcotest.failf "mult %f" m;
  let one = Sim.Cost_profile.contention_mult ~factor:0.5 ~cores:1 in
  if Float.abs (one -. 1.0) > 1e-9 then Alcotest.fail "single core has no contention"

let tests =
  [
    Alcotest.test_case "event ordering" `Quick engine_ordering;
    Alcotest.test_case "same-time FIFO" `Quick engine_same_time_fifo;
    Alcotest.test_case "cancellation" `Quick engine_cancel;
    Alcotest.test_case "run until horizon" `Quick engine_until;
    Alcotest.test_case "nested scheduling" `Quick engine_nested_schedule;
    Alcotest.test_case "wheel vs heap order oracle (100K)" `Quick wheel_matches_heap_oracle;
    Alcotest.test_case "compaction keeps heap order (cancel-heavy)" `Quick
      compaction_keeps_heap_order;
    Alcotest.test_case "cancel releases the callback" `Quick cancel_releases_callback;
    Alcotest.test_case "re-armed timers keep pending bounded" `Quick rearm_loop_bounded;
    Alcotest.test_case "compaction spares the near heap" `Quick compaction_spares_near_heap;
    Alcotest.test_case "cpu FIFO + accounting" `Quick cpu_fifo_and_accounting;
    Alcotest.test_case "cpu set pick stable" `Quick cpu_set_pick_stable;
    Alcotest.test_case "pressure decays" `Quick pressure_decays;
    Alcotest.test_case "pressure raises copy cost" `Quick pressure_copy_cost_grows;
    Alcotest.test_case "contention multiplier" `Quick contention_mult;
  ]
