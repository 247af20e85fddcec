(* The Homa-style RPC stack behind the protocol-neutral Stack_ops boundary:
   message ordering and boundaries, receiver-driven SRPT grant pacing (and
   its determinism), export -> import -> export snapshot identity (the
   invariant protocol-aware live migration rides on), and a live TCP -> Homa
   protocol handover pumped op-by-op through the Nkctl control plane. *)

module E = Sim.Engine
module Types = Tcpstack.Types
module Stack_ops = Tcpstack.Stack_ops
module Homa = Homastack.Homa
module Hcb = Homastack.Hcb

(* ---- a minimal one-vswitch world of raw Homa stacks --------------------- *)

type world = {
  engine : E.t;
  vswitch : Vswitch.t;
  registry : Tcpstack.Conn_registry.t;
}

type node = { homa : Homa.t; ops : Stack_ops.t }

let mk_world () =
  let engine = E.create () in
  let nic = Nic.create engine ~name:"nic" () in
  let vswitch = Vswitch.create engine ~nic () in
  { engine; vswitch; registry = Tcpstack.Conn_registry.create () }

let add_node w ~name ?ip ?(cfg = Homa.default_config) () =
  let cores = Sim.Cpu.Set.create w.engine ~name ~n:1 () in
  let homa =
    Homa.create ~engine:w.engine ~name ~cores ~vswitch:w.vswitch ~registry:w.registry
      ~cfg ()
  in
  let ops = Homa.ops homa in
  (match ip with Some ip -> ops.Stack_ops.add_ip ip | None -> ());
  { homa; ops }

let connect w (c : node) ~dst =
  let r = ref None in
  c.ops.Stack_ops.connect ~dst ~k:(fun x -> r := Some x);
  E.run w.engine ~until:(E.now w.engine +. 0.01);
  match !r with
  | Some (Ok conn) -> conn
  | Some (Error e) -> Alcotest.failf "connect: %s" (Types.err_to_string e)
  | None -> Alcotest.fail "connect never completed"

(* ---- message semantics -------------------------------------------------- *)

(* Each send is one message: contents arrive in per-connection FIFO order
   and a recv never crosses a message boundary, whatever max allows. *)
let message_ordering () =
  let w = mk_world () in
  let srv = add_node w ~name:"srv" ~ip:1 () in
  let cli = add_node w ~name:"cli" ~ip:2 () in
  let accepted = ref None in
  ignore
    (Types.get_exn "listen"
       (srv.ops.Stack_ops.new_listener ~addr:(Addr.make 1 80) ~backlog:0
          ~on_accept:(fun conn ~peer:_ -> accepted := Some conn)));
  let conn = connect w cli ~dst:(Addr.make 1 80) in
  (* sizes straddle the unscheduled allotment: the middle one needs grants *)
  let msgs = [ String.make 100 'a'; String.make 40_000 'b'; String.make 7 'c' ] in
  List.iter
    (fun m ->
      cli.ops.Stack_ops.send conn (Types.Data m) ~k:(fun r ->
          if Types.get_exn "send" r <> String.length m then Alcotest.fail "partial message send"))
    msgs;
  E.run w.engine ~until:(E.now w.engine +. 1.0);
  let sconn = match !accepted with Some c -> c | None -> Alcotest.fail "no accept" in
  let got = ref [] in
  let again = ref false in
  while not !again do
    srv.ops.Stack_ops.recv sconn ~max:1_000_000 ~mode:`Copy ~k:(fun r ->
        match r with
        | Ok (Types.Data s) -> got := s :: !got
        | Ok (Types.Zeros n) -> Alcotest.failf "synthetic %d-byte read of real data" n
        | Error Types.Eagain -> again := true
        | Error e -> Alcotest.failf "recv: %s" (Types.err_to_string e))
  done;
  Alcotest.(check (list string)) "messages in order, boundaries intact" msgs
    (List.rev !got)

(* ---- receiver-driven grant pacing --------------------------------------- *)

(* A slowed-down pacer so the scheduled tail of a long message is still in
   flight when a short one arrives. *)
let slow_cfg =
  { Homa.default_config with Homa.grant_quantum = Segment.mss; grant_interval = 1e-5 }

(* Returns, for each message size, the virtual time its receiver saw it
   complete. The long message starts first; SRPT must still finish the
   short one first. *)
let run_srpt_scenario () =
  let w = mk_world () in
  let srv = add_node w ~name:"srv" ~ip:1 ~cfg:slow_cfg () in
  let cli = add_node w ~name:"cli" ~ip:2 ~cfg:slow_cfg () in
  let accepted = ref [] in
  ignore
    (Types.get_exn "listen"
       (srv.ops.Stack_ops.new_listener ~addr:(Addr.make 1 80) ~backlog:0
          ~on_accept:(fun conn ~peer:_ -> accepted := conn :: !accepted)));
  let long = 400_000 and short = 30_000 in
  let c_long = connect w cli ~dst:(Addr.make 1 80) in
  let c_short = connect w cli ~dst:(Addr.make 1 80) in
  let t0 = E.now w.engine in
  cli.ops.Stack_ops.send c_long (Types.Zeros long) ~k:(fun r ->
      ignore (Types.get_exn "send long" r));
  ignore
    (E.schedule w.engine ~delay:2e-4 (fun () ->
         cli.ops.Stack_ops.send c_short (Types.Zeros short) ~k:(fun r ->
             ignore (Types.get_exn "send short" r))));
  (* Poll both accepted conns: a message only becomes readable when complete,
     so the first non-empty recv timestamps its completion. *)
  let done_at = ref [] in
  let rec poll () =
    List.iter
      (fun conn ->
        srv.ops.Stack_ops.recv conn ~max:1_000_000 ~mode:`Discard ~k:(fun r ->
            match r with
            | Ok (Types.Zeros n) when n > 0 ->
                done_at := (n, E.now w.engine -. t0) :: !done_at
            | Ok _ | Error Types.Eagain -> ()
            | Error e -> Alcotest.failf "poll recv: %s" (Types.err_to_string e)))
      !accepted;
    if List.length !done_at < 2 then ignore (E.schedule w.engine ~delay:2e-5 poll)
  in
  poll ();
  E.run w.engine ~until:(t0 +. 2.0);
  if List.length !done_at <> 2 then Alcotest.fail "not all messages completed";
  let time_of n =
    match List.assoc_opt n !done_at with
    | Some t -> t
    | None -> Alcotest.failf "no completion recorded for %d bytes" n
  in
  ((time_of short, time_of long), (Homa.stats srv.homa, Homa.stats cli.homa))

let srpt_preemption () =
  let (t_short, t_long), (srv_stats, _) = run_srpt_scenario () in
  if t_short >= t_long then
    Alcotest.failf "short message (%.6fs) should preempt the long one (%.6fs)" t_short
      t_long;
  if srv_stats.Homa.grants_tx = 0 then Alcotest.fail "receiver issued no grants";
  Alcotest.(check int) "both messages delivered" 2 srv_stats.Homa.msgs_rx

(* Same seed-free scenario twice: completion times, grant counts and every
   other counter must be bit-identical — the pacer has no hidden ordering. *)
let grant_pacing_deterministic () =
  let r1 = run_srpt_scenario () in
  let r2 = run_srpt_scenario () in
  if r1 <> r2 then Alcotest.fail "grant pacing diverged between identical runs"

(* ---- export / import round-trip ----------------------------------------- *)

(* [export (import (export h))] must be structurally identical to
   [export h] at an arbitrary mid-transfer instant, with traffic in both
   directions and a partially-read inbound queue. Mirrors the TCB
   round-trip property that TCP migration rides on. *)
let export_roundtrip =
  QCheck.Test.make ~name:"homa export->import->export identity" ~count:40
    QCheck.(triple (int_bound 200_000) (int_bound 200_000) (int_bound 100))
    (fun (n1, n2, cut) ->
      let w = mk_world () in
      let srv = add_node w ~name:"srv" ~ip:1 () in
      let cli = add_node w ~name:"cli" ~ip:2 () in
      (* The import target owns no IP: the imported connection's endpoint
         and flow pins alone must route its segments. *)
      let spare = add_node w ~name:"spare" () in
      let accepted = ref None in
      ignore
        (Types.get_exn "listen"
           (srv.ops.Stack_ops.new_listener ~addr:(Addr.make 1 80) ~backlog:0
              ~on_accept:(fun conn ~peer:_ -> accepted := Some conn)));
      let conn = connect w cli ~dst:(Addr.make 1 80) in
      cli.ops.Stack_ops.send conn (Types.Zeros (n1 + 1)) ~k:(fun r ->
          ignore (Types.get_exn "client send" r));
      (match !accepted with
      | Some sc ->
          srv.ops.Stack_ops.send sc (Types.Zeros (n2 + 1)) ~k:(fun r ->
              ignore (Types.get_exn "server send" r))
      | None -> Alcotest.fail "no accept");
      (* Cut at a varying instant so the snapshot catches unscheduled bytes,
         granted-but-unsent tails, and incomplete inbound messages. *)
      E.run w.engine ~until:(E.now w.engine +. (float_of_int cut *. 2e-6));
      (* Partially drain the client's inbound side when something is ready. *)
      cli.ops.Stack_ops.recv conn ~max:(1 + (n2 / 2)) ~mode:`Discard ~k:(fun _ -> ());
      let e = Types.get_exn "export" (cli.ops.Stack_ops.export_conn conn) in
      let s1 =
        match e.Stack_ops.e_payload with
        | Homa.Homa_state s -> s
        | _ -> Alcotest.fail "export is not a homa snapshot"
      in
      Alcotest.(check string) "protocol tag" Homa.proto e.Stack_ops.e_proto;
      let conn2 = Types.get_exn "import" (spare.ops.Stack_ops.import_conn e) in
      let e2 = Types.get_exn "re-export" (spare.ops.Stack_ops.export_conn conn2) in
      let s2 =
        match e2.Stack_ops.e_payload with
        | Homa.Homa_state s -> s
        | _ -> Alcotest.fail "re-export is not a homa snapshot"
      in
      s1 = s2)

(* ---- live protocol handover through the control plane -------------------- *)

let no_spawn _ = Alcotest.fail "unexpected NSM spawn"

(* A tenant served by a kernel-TCP NSM is switched live to a Homa NSM
   mid-load; the run is then pumped op-by-op (small engine steps
   interleaved with control ticks). The service must keep completing
   requests over the new protocol, the switch must be recorded, and the
   drained TCP NSM must retire. *)
let live_protocol_handover () =
  let open Nkcore in
  let tb = Testbed.create () in
  let host = Testbed.add_host tb ~name:"hostA" in
  let nsm_tcp = Nsm.create_kernel host ~name:"nsm-tcp" ~vcpus:1 () in
  let srv = Vm.create_nk host ~name:"srv" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm_tcp ] () in
  let cli = Vm.create_nk host ~name:"cli" ~vcpus:1 ~ips:[ 20 ] ~nsms:[ nsm_tcp ] () in
  let ctl =
    Nkctl.create host
      ~policy:
        { Nkctl.Policy.default with
          Nkctl.Policy.high_watermark = infinity;
          low_watermark = 0.0
        }
      ~spawn:no_spawn ()
  in
  Nkctl.manage ctl nsm_tcp;
  Nkctl.add_vm ctl srv ~home:nsm_tcp;
  Nkctl.add_vm ctl cli ~home:nsm_tcp;
  let proto = Nkapps.Proto.Fixed { request = 128; response = 512; keepalive = false } in
  let addr = Addr.make 10 80 in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api srv)
          (Nkapps.Epoll_server.config ~proto addr)));
  let lg =
    Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api cli)
      ~start:(E.now tb.Testbed.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = addr;
        proto;
        mode =
          Nkapps.Loadgen.Closed
            { concurrency = 2; total = None; duration = Some 2.0 };
        warmup = 0.0;
      }
  in
  Testbed.run tb ~until:0.5;
  let before = (Nkapps.Loadgen.results lg).Nkapps.Loadgen.completed in
  if before = 0 then Alcotest.fail "no requests served over TCP before the switch";
  let nsm_homa = Nsm.create_homa host ~name:"nsm-homa" ~vcpus:1 () in
  Alcotest.(check string) "homa NSM protocol id" "homa" (Nsm.proto nsm_homa);
  Nkctl.manage ctl nsm_homa;
  Nkctl.switch_protocol ctl ~vm:srv ~target:nsm_homa;
  Nkctl.switch_protocol ctl ~vm:cli ~target:nsm_homa;
  Alcotest.(check int) "both switches recorded" 2
    (Nkctl.stats ctl).Nkctl.protocol_switches;
  (* Pump op-by-op: 50 ms engine slices, one control tick between each. *)
  let t = ref 0.5 in
  while !t < 2.6 do
    t := !t +. 0.05;
    Testbed.run tb ~until:!t;
    Nkctl.tick ctl
  done;
  let r = Nkapps.Loadgen.results lg in
  if r.Nkapps.Loadgen.completed <= before then
    Alcotest.failf "service stalled across the handover (%d before, %d after)" before
      r.Nkapps.Loadgen.completed;
  (* Handover windows may cost a handful of connects, never more. *)
  if r.Nkapps.Loadgen.errors * 10 > r.Nkapps.Loadgen.completed then
    Alcotest.failf "error rate too high across the switch: %d/%d"
      r.Nkapps.Loadgen.errors r.Nkapps.Loadgen.completed;
  let established =
    Nkmon.Registry.counter_value
      (Nkmon.counter tb.Testbed.mon ~component:"homastack" ~instance:"nsm-homa"
         ~name:"conns_established")
  in
  if established = 0 then Alcotest.fail "no connections established over the Homa NSM";
  if (Nkctl.stats ctl).Nkctl.drains_completed < 1 then
    Alcotest.fail "drained TCP NSM never retired";
  if not (Nsm.failed nsm_tcp) then Alcotest.fail "source NSM still active after drain"

let tests =
  [
    Alcotest.test_case "message ordering and boundaries" `Quick message_ordering;
    Alcotest.test_case "SRPT: short message preempts long" `Quick srpt_preemption;
    Alcotest.test_case "grant pacing is deterministic" `Quick grant_pacing_deterministic;
    QCheck_alcotest.to_alcotest export_roundtrip;
    Alcotest.test_case "live TCP->Homa handover (op-by-op)" `Quick
      live_protocol_handover;
  ]
