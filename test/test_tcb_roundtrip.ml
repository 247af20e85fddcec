(* Tcb serialization round-trip: [snapshot (restore (snapshot t))] must be
   byte-for-byte identical to [snapshot t] in every connection state the
   machine can reach — including mid-stream reassembly gaps and live
   retransmission queues — for each congestion-control module. This is the
   invariant live NSM migration rides on. *)

open Tcpstack
module E = Sim.Engine

(* Small GSO so a burst leaves as several wire segments — the reassembly-gap
   and shuffled-delivery scenarios need a multi-segment flight inside the
   initial window. *)
let cfg = { Tcb.default_config with Tcb.gso = 2 * Segment.mss }

let mk_act engine outq est =
  {
    Tcb.now = (fun () -> E.now engine);
    emit = (fun seg -> Queue.push seg outq);
    set_timer = (fun ~delay f -> E.schedule engine ~delay f);
    cancel_timer = E.Timer.cancel;
    on_established = (fun () -> est := true);
    on_readable = (fun () -> ());
    on_writable = (fun () -> ());
    on_error = (fun _ -> ());
    on_destroy = (fun () -> ());
    on_transition = (fun _ _ -> ());
  }

(* The restored twin gets a mute actions record: its re-armed timers must
   never leak segments into the scenario under test. *)
let null_act engine =
  {
    Tcb.now = (fun () -> E.now engine);
    emit = (fun _ -> ());
    set_timer = (fun ~delay f -> E.schedule engine ~delay f);
    cancel_timer = E.Timer.cancel;
    on_established = (fun () -> ());
    on_readable = (fun () -> ());
    on_writable = (fun () -> ());
    on_error = (fun _ -> ());
    on_destroy = (fun () -> ());
    on_transition = (fun _ _ -> ());
  }

(* One checkpoint: snapshot, restore on a fresh controller from the same
   factory over the original channel, snapshot again, compare structurally
   (Snapshot.full is plain immutable data). *)
let roundtrip ~engine ~mkcc ~channel ~role name tcb =
  let s1 = Tcb.snapshot tcb in
  let twin = Tcb.restore ~act:(null_act engine) ~cc:(mkcc ()) ~channel ~role s1 in
  let s2 = Tcb.snapshot twin in
  Tcb.destroy_quiet twin;
  if not (s1 = s2) then
    Alcotest.failf "%s (%s, state %s): snapshot changed across restore" name
      s1.Tcb.Snapshot.s_cc_name
      (Tcb.state_to_string s1.Tcb.Snapshot.s_state);
  s1

(* Drive a raw TCB pair through the whole state machine, checkpointing the
   round-trip at every stop. Segments move through explicit queues so the
   test can hold one back to open a reassembly gap. *)
let full_lifecycle ~mkcc () =
  let engine = E.create () in
  let registry = Conn_registry.create () in
  let flow = Addr.Flow.make ~src:(Addr.make 1 5000) ~dst:(Addr.make 2 80) in
  let isn_c = 12345 and isn_s = 54321 in
  let channel = Conn_registry.register registry ~flow ~isn:isn_c in
  let cq = Queue.create () and sq = Queue.create () in
  let c_est = ref false and s_est = ref false in
  let seen = ref [] in
  let ck ~role ~channel name tcb =
    let s = roundtrip ~engine ~mkcc ~channel ~role name tcb in
    seen := s.Tcb.Snapshot.s_state :: !seen;
    s
  in
  let client =
    Tcb.create_active ~flow ~cfg ~act:(mk_act engine cq c_est) ~cc:(mkcc ()) ~isn:isn_c
      ~channel
  in
  ignore (ck ~role:`Client ~channel "fresh active open" client);
  let syn = Queue.pop cq in
  let channel_s =
    match Conn_registry.lookup registry ~flow:syn.Segment.flow ~isn:syn.Segment.seq with
    | Some c -> c
    | None -> Alcotest.fail "no channel registered for the SYN"
  in
  let server =
    Tcb.create_passive
      ~flow:(Addr.Flow.reverse syn.Segment.flow)
      ~cfg
      ~act:(mk_act engine sq s_est)
      ~cc:(mkcc ()) ~isn:isn_s ~remote_isn:syn.Segment.seq ~remote_ts:syn.Segment.ts
      ~channel:channel_s
  in
  ignore (ck ~role:`Server ~channel:channel_s "half-open passive" server);
  let pump () =
    let progress = ref true in
    while !progress do
      progress := false;
      (match Queue.take_opt cq with
      | Some s ->
          progress := true;
          Tcb.input server s
      | None -> ());
      match Queue.take_opt sq with
      | Some s ->
          progress := true;
          Tcb.input client s
      | None -> ()
    done
  in
  pump ();
  if not (!c_est && !s_est) then Alcotest.fail "handshake did not complete";
  ignore (ck ~role:`Client ~channel "established idle" client);
  ignore (ck ~role:`Server ~channel:channel_s "established idle" server);
  (* Mid-stream: write a burst, hold the first flight segment back so the
     receiver buffers out-of-order ranges, and let the resulting dupacks
     reach the sender (retx queue, dupack counter, possibly recovery). *)
  let wrote = Tcb.write client (Types.Zeros 60_000) in
  if wrote <= 0 then Alcotest.fail "write accepted nothing";
  let flight = List.of_seq (Queue.to_seq cq) in
  Queue.clear cq;
  (match flight with
  | [] | [ _ ] -> Alcotest.fail "expected a multi-segment flight"
  | first :: rest ->
      List.iter (fun s -> Tcb.input server s) rest;
      let gap = ck ~role:`Server ~channel:channel_s "reassembly gap" server in
      (match gap.Tcb.Snapshot.s_reasm with
      | Some r when r.Reassembly.s_ranges <> [] -> ()
      | _ -> Alcotest.fail "receiver holds no out-of-order ranges");
      (* dupacks towards the sender *)
      while not (Queue.is_empty sq) do
        Tcb.input client (Queue.pop sq)
      done;
      Queue.clear cq (* drop any fast-retransmit: keep the hole open *);
      let mid = ck ~role:`Client ~channel "inflight with dupacks" client in
      if mid.Tcb.Snapshot.s_retxq = [] then Alcotest.fail "sender retx queue is empty";
      Tcb.input server first);
  (* Heal: let the RTO (plus retries) retransmit whatever the dropped
     fast-retransmit covered, then drain the exchange. *)
  E.run engine ~until:10.0;
  pump ();
  E.run engine ~until:20.0;
  pump ();
  ignore (Tcb.read server ~max:100_000 ~mode:`Discard);
  ignore (ck ~role:`Client ~channel "established after recovery" client);
  ignore (ck ~role:`Server ~channel:channel_s "established after recovery" server);
  (* Teardown, one arc per state. *)
  Tcb.close client;
  ignore (ck ~role:`Client ~channel "local close sent" client);
  while not (Queue.is_empty cq) do
    Tcb.input server (Queue.pop cq)
  done;
  ignore (ck ~role:`Server ~channel:channel_s "peer close received" server);
  while not (Queue.is_empty sq) do
    Tcb.input client (Queue.pop sq)
  done;
  ignore (ck ~role:`Client ~channel "half closed" client);
  Tcb.close server;
  ignore (ck ~role:`Server ~channel:channel_s "last ack pending" server);
  while not (Queue.is_empty sq) do
    Tcb.input client (Queue.pop sq)
  done;
  ignore (ck ~role:`Client ~channel "time wait" client);
  while not (Queue.is_empty cq) do
    Tcb.input server (Queue.pop cq)
  done;
  (* Simultaneous close on a second connection reaches CLOSING. *)
  let flow2 = Addr.Flow.make ~src:(Addr.make 1 5001) ~dst:(Addr.make 2 80) in
  let ch2 = Conn_registry.register registry ~flow:flow2 ~isn:777 in
  let cq2 = Queue.create () and sq2 = Queue.create () in
  let c2 =
    Tcb.create_active ~flow:flow2 ~cfg ~act:(mk_act engine cq2 (ref false)) ~cc:(mkcc ())
      ~isn:777 ~channel:ch2
  in
  let syn2 = Queue.pop cq2 in
  let s2 =
    Tcb.create_passive
      ~flow:(Addr.Flow.reverse flow2)
      ~cfg
      ~act:(mk_act engine sq2 (ref false))
      ~cc:(mkcc ()) ~isn:888 ~remote_isn:syn2.Segment.seq ~remote_ts:syn2.Segment.ts
      ~channel:ch2
  in
  let pump2 () =
    let progress = ref true in
    while !progress do
      progress := false;
      (match Queue.take_opt cq2 with
      | Some s ->
          progress := true;
          Tcb.input s2 s
      | None -> ());
      match Queue.take_opt sq2 with
      | Some s ->
          progress := true;
          Tcb.input c2 s
      | None -> ()
    done
  in
  pump2 ();
  Tcb.close c2;
  Tcb.close s2;
  (* cross-deliver the FINs only *)
  while not (Queue.is_empty cq2) do
    Tcb.input s2 (Queue.pop cq2)
  done;
  ignore (ck ~role:`Server ~channel:ch2 "simultaneous close" s2);
  while not (Queue.is_empty sq2) do
    Tcb.input c2 (Queue.pop sq2)
  done;
  pump2 ();
  (* Every state the machine exposes to migration must have been hit. *)
  let expect =
    [
      Tcb.Syn_sent;
      Tcb.Syn_rcvd;
      Tcb.Established;
      Tcb.Fin_wait_1;
      Tcb.Fin_wait_2;
      Tcb.Close_wait;
      Tcb.Closing;
      Tcb.Last_ack;
      Tcb.Time_wait;
    ]
  in
  List.iter
    (fun st ->
      if not (List.mem st !seen) then
        Alcotest.failf "state %s never checkpointed" (Tcb.state_to_string st))
    expect

let ccs =
  [
    ("reno", Cc_reno.factory ~mss:Segment.mss);
    ("cubic", Cc_cubic.factory ~mss:Segment.mss);
    ("dctcp", Cc_dctcp.factory ~mss:Segment.mss);
  ]

(* Property: under a random write pattern and a random partial/shuffled
   delivery order, both ends round-trip at an arbitrary mid-stream instant. *)
let random_midstream =
  QCheck.Test.make ~name:"random mid-stream snapshot/restore identity" ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound (List.length ccs - 1)))
    (fun (seed, cci) ->
      let mkcc = snd (List.nth ccs cci) in
      let rng = Nkutil.Rng.create ~seed in
      let engine = E.create () in
      let registry = Conn_registry.create () in
      let flow = Addr.Flow.make ~src:(Addr.make 1 6000) ~dst:(Addr.make 2 80) in
      let isn = 1 + Nkutil.Rng.int rng 100000 in
      let channel = Conn_registry.register registry ~flow ~isn in
      let cq = Queue.create () and sq = Queue.create () in
      let client =
        Tcb.create_active ~flow ~cfg ~act:(mk_act engine cq (ref false)) ~cc:(mkcc ())
          ~isn ~channel
      in
      let syn = Queue.pop cq in
      let server =
        Tcb.create_passive
          ~flow:(Addr.Flow.reverse flow)
          ~cfg
          ~act:(mk_act engine sq (ref false))
          ~cc:(mkcc ())
          ~isn:(1 + Nkutil.Rng.int rng 100000)
          ~remote_isn:syn.Segment.seq ~remote_ts:syn.Segment.ts ~channel
      in
      let pump () =
        let progress = ref true in
        while !progress do
          progress := false;
          (match Queue.take_opt cq with
          | Some s ->
              progress := true;
              Tcb.input server s
          | None -> ());
          match Queue.take_opt sq with
          | Some s ->
              progress := true;
              Tcb.input client s
          | None -> ()
        done
      in
      pump ();
      (* a few rounds of writes with shuffled, partially-withheld delivery *)
      for _round = 0 to 2 do
        ignore (Tcb.write client (Types.Zeros (1 + Nkutil.Rng.int rng 50_000)));
        let flight = Array.of_seq (Queue.to_seq cq) in
        Queue.clear cq;
        Nkutil.Rng.shuffle rng flight;
        Array.iter
          (fun s -> if Nkutil.Rng.int rng 100 < 70 then Tcb.input server s)
          flight;
        while not (Queue.is_empty sq) do
          Tcb.input client (Queue.pop sq)
        done;
        Queue.clear cq
      done;
      let ok ~role ~ch tcb =
        let s1 = Tcb.snapshot tcb in
        let twin = Tcb.restore ~act:(null_act engine) ~cc:(mkcc ()) ~channel:ch ~role s1 in
        let s2 = Tcb.snapshot twin in
        Tcb.destroy_quiet twin;
        s1 = s2
      in
      ok ~role:`Client ~ch:channel client && ok ~role:`Server ~ch:channel server)

let tests =
  List.map
    (fun (name, mkcc) ->
      Alcotest.test_case
        (Printf.sprintf "lifecycle round-trip (%s)" name)
        `Quick (full_lifecycle ~mkcc))
    ccs
  @ [ QCheck_alcotest.to_alcotest random_midstream ]
