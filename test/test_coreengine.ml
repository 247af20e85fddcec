(* CoreEngine and NK-device unit tests: registration, switching, queue
   selection, connection-table lifecycle, rate limiting at NQE level. *)

open Nkcore
module E = Sim.Engine
module Ring = Nkutil.Spsc_ring

let mk_world () =
  let engine = E.create () in
  let core = Sim.Cpu.create engine ~name:"ce" () in
  let ce = Coreengine.create ~engine ~cores:[| core |] Nk_costs.default in
  (engine, ce)

let mk_device ~id ~role ~qsets =
  Nk_device.create ~id ~role ~qsets
    ~hugepages:(Hugepages.create ~page_size:4096 ~pages:4 ())
    ()

let encode op ~vm_id ~qset ~sock ?(size = 0) () =
  Nqe.encode (Nqe.make ~op ~vm_id ~qset ~sock ~size ())

let vm_to_nsm_switching () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:2 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  let woken = ref [] in
  Nk_device.set_kick_owner nsm (fun q -> woken := q :: !woken);
  (* Control op goes to the NSM's job queue; data op to its send queue. *)
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:7 ());
  Nk_device.post vm ~qset:0 (encode Nqe.Send ~vm_id:1 ~qset:0 ~sock:7 ~size:100 ());
  E.run engine;
  Alcotest.(check int) "one table entry" 1 (Coreengine.conn_table_size ce);
  Alcotest.(check int) "two switched" 2 (Coreengine.stats ce).Coreengine.switched;
  (* Both NQEs of socket 7 must land in the same queue set. *)
  let qsets_with_job =
    List.filter
      (fun i -> Ring.length (Nk_device.qset nsm i).Queue_set.job > 0)
      [ 0; 1 ]
  in
  let qsets_with_send =
    List.filter
      (fun i -> Ring.length (Nk_device.qset nsm i).Queue_set.send > 0)
      [ 0; 1 ]
  in
  Alcotest.(check int) "job landed once" 1 (List.length qsets_with_job);
  Alcotest.(check bool) "same queue set for the connection" true
    (qsets_with_job = qsets_with_send);
  Alcotest.(check bool) "consumer woken" true (!woken <> [])

let nsm_to_vm_completion () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:2 ~role:Nk_device.Vm_side ~qsets:2 in
  let nsm = mk_device ~id:3 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:2 ~nsm_ids:[ 3 ];
  (* NSM announces an accepted connection (unassigned queue set) and then a
     data event for it. *)
  Nk_device.post nsm ~qset:0
    (Nqe.encode
       (Nqe.make ~op:Nqe.Ev_accept ~vm_id:2 ~qset:Nqe.qset_unassigned ~sock:11
          ~size:(Nqe.nsm_sock_bit lor 1) ()));
  E.run engine;
  Alcotest.(check int) "accept created a table entry" 1 (Coreengine.conn_table_size ce);
  let receive_total =
    Ring.length (Nk_device.qset vm 0).Queue_set.receive
    + Ring.length (Nk_device.qset vm 1).Queue_set.receive
  in
  Alcotest.(check int) "delivered on a receive queue" 1 receive_total;
  (* The delivered NQE's qset byte was completed by the CoreEngine. *)
  let raw =
    match
      ( Ring.pop (Nk_device.qset vm 0).Queue_set.receive,
        Ring.pop (Nk_device.qset vm 1).Queue_set.receive )
    with
    | Some r, None | None, Some r -> r
    | _ -> Alcotest.fail "expected exactly one NQE"
  in
  match Nqe.decode raw with
  | Ok d ->
      if d.Nqe.qset >= 2 then Alcotest.failf "qset not completed: %d" d.Nqe.qset
  | Error e -> Alcotest.fail e

let close_clears_table () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:9 ());
  E.run engine;
  Alcotest.(check int) "entry exists" 1 (Coreengine.conn_table_size ce);
  Nk_device.post vm ~qset:0 (encode Nqe.Close ~vm_id:1 ~qset:0 ~sock:9 ());
  E.run engine;
  Alcotest.(check int) "close removed the entry" 0 (Coreengine.conn_table_size ce)

let round_robin_across_nsms () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm1 = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  let nsm2 = mk_device ~id:2 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm1;
  Coreengine.register_nsm ce nsm2;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1; 2 ];
  for sock = 1 to 4 do
    Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock ())
  done;
  E.run engine;
  let jobs d = Ring.length (Nk_device.qset d 0).Queue_set.job in
  Alcotest.(check int) "nsm1 got half" 2 (jobs nsm1);
  Alcotest.(check int) "nsm2 got half" 2 (jobs nsm2)

let rate_limit_defers_sends () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  (* 1000 B/s with a 1000 B burst: the first send passes, the second waits
     ~1 s for tokens. *)
  Coreengine.set_rate_limit ce ~vm_id:1 ~bytes_per_sec:1000.0 ~burst:1000.0;
  Nk_device.post vm ~qset:0 (encode Nqe.Send ~vm_id:1 ~qset:0 ~sock:5 ~size:1000 ());
  Nk_device.post vm ~qset:0 (encode Nqe.Send ~vm_id:1 ~qset:0 ~sock:5 ~size:1000 ());
  E.run engine ~until:0.5;
  Alcotest.(check int) "only first send through at 0.5s" 1
    (Ring.length (Nk_device.qset nsm 0).Queue_set.send);
  E.run engine ~until:2.0;
  Alcotest.(check int) "second released once tokens accrue" 2
    (Ring.length (Nk_device.qset nsm 0).Queue_set.send);
  Alcotest.(check bool) "deferral counted" true
    ((Coreengine.stats ce).Coreengine.rate_deferred >= 1)

let control_not_rate_limited () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Coreengine.set_rate_limit ce ~vm_id:1 ~bytes_per_sec:1.0 ~burst:1.0;
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:5 ());
  E.run engine ~until:0.01;
  Alcotest.(check int) "control op passes a strangled bucket" 1
    (Ring.length (Nk_device.qset nsm 0).Queue_set.job)

let device_overflow_backpressure () =
  let dev =
    Nk_device.create ~id:1 ~role:Nk_device.Vm_side ~qsets:1 ~capacity:2
      ~hugepages:(Hugepages.create ~page_size:4096 ~pages:1 ())
      ()
  in
  for sock = 1 to 5 do
    Nk_device.post dev ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock ())
  done;
  (* capacity 2, so three spill to the overflow; nothing is lost *)
  Alcotest.(check int) "pending counts ring + overflow" 5
    (Nk_device.outbound_pending dev ~qset:0);
  let s = Nk_device.qset dev 0 in
  ignore (Ring.pop s.Queue_set.job);
  ignore (Ring.pop s.Queue_set.job);
  Nk_device.flush_overflow dev;
  Alcotest.(check int) "overflow refills the ring" 2 (Ring.length s.Queue_set.job);
  Alcotest.(check int) "still nothing lost" 3 (Nk_device.outbound_pending dev ~qset:0)

let forget_vm_routes_edge_cases () =
  let engine = E.create () in
  let core = Sim.Cpu.create engine ~name:"ce" () in
  let mon = Nkmon.create ~trace_enabled:true ~now:(fun () -> E.now engine) () in
  let ce = Coreengine.create ~engine ~cores:[| core |] ~mon Nk_costs.default in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:7 ());
  E.run engine;
  Alcotest.(check int) "one route installed" 1 (Coreengine.conn_table_size ce);
  let traced () = Nkmon.Trace.recorded (Nkmon.trace mon) in
  let dump = Coreengine.dump_conn_table ce in
  let before = traced () in
  (* No routes match: both calls are complete no-ops — no drops, no table
     churn, and crucially no ctl trace event claiming an unwind happened. *)
  Alcotest.(check int) "wrong nsm drops nothing" 0
    (Coreengine.forget_vm_routes ce ~vm_id:1 ~nsm_id:99);
  Alcotest.(check int) "unknown vm drops nothing" 0
    (Coreengine.forget_vm_routes ce ~vm_id:2 ~nsm_id:1);
  Alcotest.(check int) "no-op calls emit no trace events" before (traced ());
  Alcotest.(check string) "table untouched" dump (Coreengine.dump_conn_table ce);
  (* The real unwind fires once and is traced once... *)
  Alcotest.(check int) "matching call drops the route" 1
    (Coreengine.forget_vm_routes ce ~vm_id:1 ~nsm_id:1);
  Alcotest.(check int) "table empty" 0 (Coreengine.conn_table_size ce);
  Alcotest.(check int) "one trace event" (before + 1) (traced ());
  (* ...and repeating it is idempotent, trace included. *)
  Alcotest.(check int) "double call is a no-op" 0
    (Coreengine.forget_vm_routes ce ~vm_id:1 ~nsm_id:1);
  Alcotest.(check int) "still one trace event" (before + 1) (traced ())

(* ---- the device owner's poll loop (Nk_device.serve) ----------------------- *)

(* A served device whose [apply] records (qset, op, sock, time, busy cycles
   of the serving core at that instant) for every NQE it is handed. *)
let mk_served ~role ~qsets =
  let engine = E.create () in
  let cores = Sim.Cpu.Set.create engine ~name:"owner" ~n:qsets () in
  let dev = mk_device ~id:1 ~role ~qsets in
  let applied = ref [] in
  Nk_device.serve dev ~engine ~cores ~costs:Nk_costs.default ~instance:"owner"
    ~apply:(fun ~qset raw ->
      applied :=
        ( qset,
          Nqe.View.op raw,
          Nqe.View.sock raw,
          E.now engine,
          Sim.Cpu.busy_cycles (Sim.Cpu.Set.core cores qset) )
        :: !applied);
  (engine, cores, dev, applied)

(* Group consecutive applies by their virtual time: one group per burst. *)
let bursts applied =
  List.fold_left
    (fun acc ((_, _, _, at, _) as a) ->
      match acc with
      | ((_, _, _, at', _) :: _ as b) :: rest when at' = at -> (a :: b) :: rest
      | _ -> [ a ] :: acc)
    [] (List.rev applied)
  |> List.rev_map List.rev

let costs = Nk_costs.default

let serve_nsm_bursts () =
  let engine, cores, dev, applied = mk_served ~role:Nk_device.Nsm_side ~qsets:2 in
  (* 100 jobs and 50 sends, interleaved, all on queue set 1. *)
  let ops = List.init 150 (fun i -> if i mod 3 = 2 then Nqe.Send else Nqe.Socket) in
  List.iteri
    (fun sock op -> Nk_device.post dev ~qset:1 (encode op ~vm_id:1 ~qset:1 ~sock ()))
    ops;
  Nk_device.wake_thunk dev ~qset:1 ();
  E.run engine;
  (* Model: each burst takes up to 64 from the job ring, then the send ring
     gets what is left of the 64. *)
  let jobs = List.filteri (fun i _ -> i mod 3 <> 2) (List.init 150 Fun.id)
  and sends = List.filteri (fun i _ -> i mod 3 = 2) (List.init 150 Fun.id) in
  let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> [] in
  let rec drop n = function _ :: xs when n > 0 -> drop (n - 1) xs | l -> l in
  let rec model jobs sends =
    if jobs = [] && sends = [] then []
    else
      let j = take 64 jobs in
      let s = take (64 - List.length j) sends in
      (j @ s) :: model (drop (List.length j) jobs) (drop (List.length s) sends)
  in
  let expected = model jobs sends in
  let got = bursts !applied in
  Alcotest.(check (list (list int)))
    "ring order, jobs before sends, at most 64 per burst" expected
    (List.map (List.map (fun (_, _, sock, _, _) -> sock)) got);
  Alcotest.(check (list int)) "burst sizes" [ 64; 64; 22 ] (List.map List.length got);
  List.iter
    (fun (qset, op, sock, _, _) ->
      Alcotest.(check int) "applied on its queue set" 1 qset;
      Alcotest.(check bool) "op survives" true (op = List.nth ops sock))
    !applied;
  (* Each burst charges service_poll + n * nqe_decode on queue set 1's core
     before its applies run. *)
  let cost n =
    costs.Nk_costs.service_poll +. (float_of_int n *. costs.Nk_costs.nqe_decode)
  in
  let _ =
    List.fold_left
      (fun prev b ->
        let _, _, _, _, busy = List.hd b in
        Alcotest.(check (float 1e-6)) "burst charge" (cost (List.length b)) (busy -. prev);
        busy)
      0.0 got
  in
  Alcotest.(check (float 1e-6)) "queue set 0's core idle" 0.0
    (Sim.Cpu.busy_cycles (Sim.Cpu.Set.core cores 0))

let serve_vm_interrupt () =
  let engine, cores, dev, applied = mk_served ~role:Nk_device.Vm_side ~qsets:1 in
  let core = Sim.Cpu.Set.core cores 0 in
  let deliver sock =
    Nk_device.post dev ~qset:0 (encode Nqe.Comp_socket ~vm_id:1 ~qset:0 ~sock ());
    Nk_device.wake_thunk dev ~qset:0 ()
  in
  let charged = ref [] in
  let step ~at sock =
    ignore
      (E.schedule_at engine ~at (fun () ->
           let before = Sim.Cpu.busy_cycles core in
           deliver sock;
           charged := (Sim.Cpu.busy_cycles core -. before) :: !charged))
  in
  let window = costs.Nk_costs.guest_idle_window in
  (* Busy from t = 0; the second delivery lands inside the polling window
     after the first burst finished, the third long after it. *)
  step ~at:0.0 1;
  step ~at:(window /. 2.0) 2;
  step ~at:(1000.0 *. window) 3;
  E.run engine;
  let poll = costs.Nk_costs.guest_poll +. costs.Nk_costs.nqe_decode in
  Alcotest.(check (list (float 1e-6)))
    "interrupt only after the idle window"
    [ poll; poll; poll +. costs.Nk_costs.guest_interrupt ]
    (List.rev !charged);
  Alcotest.(check (list int)) "all applied" [ 1; 2; 3 ]
    (List.rev_map (fun (_, _, sock, _, _) -> sock) !applied)

let serve_stop () =
  let engine, cores, dev, applied = mk_served ~role:Nk_device.Nsm_side ~qsets:1 in
  let core = Sim.Cpu.Set.core cores 0 in
  for sock = 1 to 100 do
    Nk_device.post dev ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock ())
  done;
  Nk_device.wake_thunk dev ~qset:0 ();
  (* The first burst is drained and charged; stop before it is applied. *)
  Nk_device.stop dev;
  E.run engine;
  Alcotest.(check int) "in-flight burst still applied" 64 (List.length !applied);
  Alcotest.(check int) "rest left in the ring" 36
    (Ring.length (Nk_device.qset dev 0).Queue_set.job);
  let busy = Sim.Cpu.busy_cycles core in
  Alcotest.(check (float 1e-6)) "one burst charged"
    (costs.Nk_costs.service_poll +. (64.0 *. costs.Nk_costs.nqe_decode))
    busy;
  Nk_device.post dev ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:101 ());
  Nk_device.wake_thunk dev ~qset:0 ();
  E.run engine;
  Alcotest.(check int) "nothing drained after stop" 64 (List.length !applied);
  Alcotest.(check (float 1e-6)) "nothing charged after stop" busy (Sim.Cpu.busy_cycles core)

(* Every opcode the codec accepts, classified by direction with an
   exhaustive match, rides the ring of its direction: VM->NSM ops the job
   ring (Send the send ring), NSM->VM ops the completion ring (accept, data
   and EOF events the receive ring). *)
let kind_of_op_exhaustive () =
  let ops =
    List.filter_map
      (fun b ->
        let raw = Bytes.make Nqe.size_bytes '\000' in
        Bytes.set_uint8 raw 0 b;
        if Nqe.View.ok raw then Some (Nqe.View.op raw) else None)
      (List.init 256 Fun.id)
  in
  Alcotest.(check int) "every opcode decodes" 17 (List.length ops);
  let s = Queue_set.create ~capacity:1 () in
  List.iter
    (fun op ->
      let name = Nqe.op_to_string op in
      let expected, ring =
        match op with
        | Nqe.Send -> (`Send, s.Queue_set.send)
        | Nqe.Socket | Nqe.Bind | Nqe.Listen | Nqe.Connect | Nqe.Recv_done | Nqe.Close ->
            (`Job, s.Queue_set.job)
        | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof -> (`Receive, s.Queue_set.receive)
        | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen | Nqe.Comp_connect
        | Nqe.Comp_send | Nqe.Comp_close | Nqe.Ev_err ->
            (`Completion, s.Queue_set.completion)
      in
      let kind = Queue_set.kind_of_op op in
      Alcotest.(check string)
        name (Queue_set.queue_name expected) (Queue_set.queue_name kind);
      Alcotest.(check bool) (name ^ " ring") true (Queue_set.ring s kind == ring))
    ops

let tests =
  [
    Alcotest.test_case "vm->nsm switching + queue pinning" `Quick vm_to_nsm_switching;
    Alcotest.test_case "nsm->vm accept completion" `Quick nsm_to_vm_completion;
    Alcotest.test_case "close clears the table" `Quick close_clears_table;
    Alcotest.test_case "round robin across NSMs" `Quick round_robin_across_nsms;
    Alcotest.test_case "rate limit defers sends" `Quick rate_limit_defers_sends;
    Alcotest.test_case "control ops bypass the bucket" `Quick control_not_rate_limited;
    Alcotest.test_case "device overflow backpressure" `Quick device_overflow_backpressure;
    Alcotest.test_case "forget_vm_routes edge cases" `Quick forget_vm_routes_edge_cases;
    Alcotest.test_case "serve: NSM bursts, order and charge" `Quick serve_nsm_bursts;
    Alcotest.test_case "serve: VM interrupt after idle window" `Quick serve_vm_interrupt;
    Alcotest.test_case "serve: stop finishes the burst" `Quick serve_stop;
    Alcotest.test_case "kind_of_op is the one op->ring rule" `Quick kind_of_op_exhaustive;
  ]
