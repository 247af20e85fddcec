(* Tests of the paper's extension features: on-the-fly NSM switching (§3),
   zerocopy NSM and SmartNIC-offloaded CoreEngine (§7.8). *)

open Nkcore
module Types = Tcpstack.Types

let ip_vm = 10
let ip_client = 20

let fixed64 = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false }

let conns nsm =
  List.fold_left
    (fun acc (s : Tcpstack.Stack.stats) -> acc + s.Tcpstack.Stack.conns_established)
    0 (Nsm.stack_stats nsm)

let run_loadgen tb client_api ~addr ~total ~start =
  Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:client_api ~start
    {
      Nkapps.Loadgen.server = addr;
      proto = fixed64;
      mode = Nkapps.Loadgen.Closed { concurrency = 16; total = Some total; duration = None };
      warmup = 0.0;
    }

let switch_nsm_on_the_fly () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm1 = Nsm.create_kernel hosta ~name:"nsm1" ~vcpus:1 () in
  let nsm2 = Nsm.create_kernel hosta ~name:"nsm2" ~vcpus:1 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ ip_vm ] ~nsms:[ nsm1 ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ ip_client ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* Server on port 80 while attached to NSM1. *)
  ignore
    (Types.get_exn "server1"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_vm 80))));
  let lg1 = run_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm 80) ~total:500 ~start:1e-3 in
  (* After the first batch, the operator live-migrates the VM to NSM2 and
     the tenant opens a new listener. *)
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:0.5 (fun () ->
         Vm.attach_nsm vm nsm2;
         ignore
           (Types.get_exn "server2"
              (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
                 (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_vm 81))))));
  let lg2 = run_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm 81) ~total:500 ~start:0.6 in
  Testbed.run tb ~until:30.0;
  Alcotest.(check int) "port 80 served" 500
    (Nkapps.Loadgen.results lg1).Nkapps.Loadgen.completed;
  Alcotest.(check int) "port 81 served" 500
    (Nkapps.Loadgen.results lg2).Nkapps.Loadgen.completed;
  if conns nsm1 < 500 then Alcotest.failf "nsm1 should carry batch 1 (%d)" (conns nsm1);
  if conns nsm2 < 500 then Alcotest.failf "nsm2 should carry batch 2 (%d)" (conns nsm2)

let checksum s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

(* Live handover with drain: a bulk transfer in flight when the operator
   re-homes the VM must complete on the source NSM byte-for-byte (the
   vswitch flow pin keeps its segments landing on the source stack even
   after the listener's endpoint moves), while connections opened after the
   handover land on the target. Once the bulk connection closes, the
   drained source retires at zero connections. *)
let drain_handover_preserves_streams () =
  (* A slow (1 Gb/s) fabric stretches the bulk transfer so the handover
     lands mid-stream. *)
  let tb = Testbed.create ~config:{ Testbed.Config.default with rate_gbps = 1.0 } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm1 = Nsm.create_kernel hosta ~name:"nsm1" ~vcpus:1 () in
  let nsm2 = Nsm.create_kernel hosta ~name:"nsm2" ~vcpus:1 () in
  let ctl =
    Nkctl.create hosta
      ~policy:{ Nkctl.Policy.default with max_nsms = 1 }
      ~spawn:(fun _ -> Alcotest.fail "unexpected NSM spawn")
      ()
  in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ ip_vm ] ~nsms:[ nsm1 ] () in
  Nkctl.add_vm ctl vm ~home:nsm1;
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ ip_client ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let addr = Addr.make ip_vm 6379 in
  ignore
    (Types.get_exn "kv" (Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr));
  let big = String.init 300_000 (fun i -> Char.chr (33 + ((i * 7) mod 90))) in
  let got = ref None in
  let handover_time = ref nan in
  let bulk_done_time = ref nan in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client)
           addr
           ~k:(fun r ->
             let conn = Types.get_exn "connect" r in
             Nkapps.Kvstore.Client.set conn ~key:"blob" ~value:big ~k:(fun r ->
                 (match r with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "set: %s" e);
                 Nkapps.Kvstore.Client.get conn ~key:"blob" ~k:(fun r ->
                     (match r with
                     | Ok v -> got := v
                     | Error e -> Alcotest.failf "get: %s" e);
                     bulk_done_time := Testbed.now tb;
                     Nkapps.Kvstore.Client.close conn)))));
  (* Handover mid-transfer. *)
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:2e-3 (fun () ->
         handover_time := Testbed.now tb;
         Nkctl.handover ctl ~vm ~target:nsm2));
  (* A connection opened after the handover must land on the target NSM. *)
  let post = ref None in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:0.1 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client)
           addr
           ~k:(fun r ->
             let conn = Types.get_exn "post connect" r in
             Nkapps.Kvstore.Client.set conn ~key:"after" ~value:"handover"
               ~k:(fun _ ->
                 Nkapps.Kvstore.Client.get conn ~key:"after" ~k:(fun r ->
                     (match r with
                     | Ok v -> post := v
                     | Error e -> Alcotest.failf "post get: %s" e);
                     Nkapps.Kvstore.Client.close conn)))));
  Testbed.run tb ~until:30.0;
  (match !got with
  | Some v ->
      Alcotest.(check int) "bulk length intact across handover" (String.length big)
        (String.length v);
      Alcotest.(check int) "bulk content intact across handover" (checksum big)
        (checksum v)
  | None -> Alcotest.fail "bulk transfer never completed");
  if Float.is_nan !handover_time || !bulk_done_time <= !handover_time then
    Alcotest.failf "handover (%.4fs) should land mid-stream (bulk done %.4fs)"
      !handover_time !bulk_done_time;
  Alcotest.(check string) "post-handover service" "handover"
    (Option.value ~default:"" !post);
  (* The established bulk connection stayed on the source stack... *)
  if conns nsm1 < 1 then Alcotest.fail "bulk connection should have run on nsm1";
  (* ...and the post-handover connection went to the target. *)
  if conns nsm2 < 1 then Alcotest.fail "new connection should land on nsm2";
  (* With everything closed, the drained source retires on the next tick. *)
  Nkctl.tick ctl;
  Alcotest.(check int) "drain completed" 1 (Nkctl.stats ctl).Nkctl.drains_completed;
  Alcotest.(check int) "source left the pool" 1 (Nkctl.pool_size ctl);
  if not (Nsm.failed nsm1) then Alcotest.fail "retired source should be marked failed"

(* A detached NSM receives no new sockets; established routes are
   untouched. Outbound connections exercise round-robin placement (accepted
   server-side sockets always follow their listener's NSM, so the VM
   connects out here: each request is a fresh socket CoreEngine places). *)
let detach_nsm_stops_new_sockets () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm1 = Nsm.create_kernel hosta ~name:"nsm1" ~vcpus:1 () in
  let nsm2 = Nsm.create_kernel hosta ~name:"nsm2" ~vcpus:1 () in
  let vm =
    Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ ip_vm ] ~nsms:[ nsm1; nsm2 ] ()
  in
  let server_vm =
    Vm.create_baseline hostb ~name:"server" ~vcpus:8 ~ips:[ ip_client ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api server_vm)
          (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_client 80))));
  (* Batch 1: round-robin placement spreads the VM's sockets over both. *)
  let lg1 = run_loadgen tb (Vm.api vm) ~addr:(Addr.make ip_client 80) ~total:200 ~start:1e-3 in
  Testbed.run tb ~until:5.0;
  Alcotest.(check int) "batch 1 served" 200
    (Nkapps.Loadgen.results lg1).Nkapps.Loadgen.completed;
  let nsm2_before = conns nsm2 in
  if conns nsm1 = 0 || nsm2_before = 0 then
    Alcotest.fail "both NSMs should carry sockets before the detach";
  Vm.detach_nsm vm nsm2;
  let lg2 = run_loadgen tb (Vm.api vm) ~addr:(Addr.make ip_client 80) ~total:200
      ~start:(Testbed.now tb) in
  Testbed.run tb ~until:10.0;
  Alcotest.(check int) "batch 2 served" 200
    (Nkapps.Loadgen.results lg2).Nkapps.Loadgen.completed;
  Alcotest.(check int) "detached NSM got no new sockets" nsm2_before (conns nsm2)

let nk_world ~costs =
  let tb = Testbed.create ~config:{ Testbed.Config.default with costs } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:1 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ ip_vm ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ ip_client ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (tb, hosta, vm, client)

let rps_run tb vm client ~total =
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_vm 80))));
  let lg = run_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm 80) ~total ~start:1e-3 in
  Testbed.run tb ~until:30.0;
  Nkapps.Loadgen.results lg

let zerocopy_reduces_nsm_cycles () =
  let tput costs =
    let tb, hosta, vm, client = nk_world ~costs in
    ignore hosta;
    let sink =
      Types.get_exn "sink"
        (Nkapps.Stream.sink ~engine:tb.Testbed.engine ~api:(Vm.api client)
           ~addr:(Addr.make ip_client 5001))
    in
    ignore
      (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm)
         ~dst:(Addr.make ip_client 5001) ~streams:8 ~msg_size:16384 ~start:1e-3 ~stop:0.5 ());
    Testbed.run tb ~until:0.6;
    Nkapps.Stream.sink_throughput_gbps sink
  in
  let base = tput Nk_costs.default in
  let zc = tput (Nk_costs.zerocopy Nk_costs.default) in
  if zc < base *. 1.02 then
    Alcotest.failf "zerocopy should raise 1-core NSM send throughput: %.1f vs %.1f" zc base

let ce_offload_saves_ce_cycles () =
  let measure costs =
    let tb, hosta, vm, client = nk_world ~costs in
    let r = rps_run tb vm client ~total:2000 in
    Alcotest.(check int) "served" 2000 r.Nkapps.Loadgen.completed;
    Sim.Cpu.busy_cycles (Host.ce_core hosta)
  in
  let sw = measure Nk_costs.default in
  let hw = measure (Nk_costs.ce_offloaded Nk_costs.default) in
  if hw > sw /. 3.0 then
    Alcotest.failf "offload should slash CE cycles: %.0f vs %.0f" hw sw

let tests =
  [
    Alcotest.test_case "switch NSM on the fly" `Quick switch_nsm_on_the_fly;
    Alcotest.test_case "drain handover preserves streams" `Quick
      drain_handover_preserves_streams;
    Alcotest.test_case "detached NSM gets no new sockets" `Quick
      detach_nsm_stops_new_sockets;
    Alcotest.test_case "zerocopy NSM raises throughput" `Quick zerocopy_reduces_nsm_cycles;
    Alcotest.test_case "SmartNIC CE offload saves cycles" `Quick ce_offload_saves_ce_cycles;
  ]
