(* Fault injection on the NetKernel path: random wire loss between hosts
   while real data crosses GuestLib -> hugepages -> NQEs -> NSM stack ->
   wire. Data integrity must survive retransmissions end to end. *)

open Nkcore
module Types = Tcpstack.Types
module E = Sim.Engine

let checksum s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

let lossy_kv_bulk () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:1 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* 1% loss in both directions across the fabric. *)
  (match Fabric.port_to tb.Testbed.fabric (Host.nic hosta) with
  | Some l -> Link.set_random_loss l ~rng:(Nkutil.Rng.create ~seed:3) ~rate:0.01
  | None -> Alcotest.fail "no downlink A");
  (match Fabric.port_to tb.Testbed.fabric (Host.nic hostb) with
  | Some l -> Link.set_random_loss l ~rng:(Nkutil.Rng.create ~seed:4) ~rate:0.01
  | None -> Alcotest.fail "no downlink B");
  let addr = Addr.make 10 6379 in
  ignore
    (Types.get_exn "kv" (Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr));
  (* A value big enough to span many segments, with non-trivial content. *)
  let big = String.init 300_000 (fun i -> Char.chr (33 + ((i * 7) mod 90))) in
  let got = ref None in
  ignore
    (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
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
                     Nkapps.Kvstore.Client.close conn)))));
  Testbed.run tb ~until:60.0;
  match !got with
  | Some v ->
      Alcotest.(check int) "length survived loss" (String.length big) (String.length v);
      Alcotest.(check int) "content survived loss" (checksum big) (checksum v)
  | None -> Alcotest.fail "bulk value never came back"

let loadgen_under_loss () =
  (* Short connections under wire loss: every request still completes
     (latencies include retransmission waits). *)
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:1 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (match Fabric.port_to tb.Testbed.fabric (Host.nic hosta) with
  | Some l -> Link.set_random_loss l ~rng:(Nkutil.Rng.create ~seed:9) ~rate:0.005
  | None -> Alcotest.fail "no downlink");
  let proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false } in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))));
  let lg =
    Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
      ~start:(E.now tb.Testbed.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = Addr.make 10 80;
        proto;
        mode =
          Nkapps.Loadgen.Closed { concurrency = 8; total = Some 400; duration = None };
        warmup = 0.0;
      }
  in
  Testbed.run tb ~until:120.0;
  let r = Nkapps.Loadgen.results lg in
  Alcotest.(check int) "all requests completed despite loss" 400
    r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "no errors" 0 r.Nkapps.Loadgen.errors

let tests =
  [
    Alcotest.test_case "kv bulk integrity under 1% loss" `Quick lossy_kv_bulk;
    Alcotest.test_case "loadgen completes under loss" `Quick loadgen_under_loss;
  ]
