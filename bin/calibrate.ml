(* Calibration probe: measures the simulator against the paper's published
   single-core and scaling anchors (DESIGN.md section 5). Run after touching
   any cost constant:

     dune exec bin/calibrate.exe *)

open Nkcore
module Types = Tcpstack.Types

let ip_server = 10
let ip_client = 20

let client_ips = List.init 8 (fun i -> ip_client + i)

let baseline_world ?(vcpus = 1) () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let vm = Vm.create_baseline hosta ~name:"vm" ~vcpus ~ips:[ ip_server ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:16 ~ips:client_ips
      ~profile:Sim.Cost_profile.ideal ()
  in
  (tb, vm, client)

let nk_world ?(vcpus = 1) ?(nsm_cores = 1) ?(kind = `Kernel) () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm =
    match kind with
    | `Kernel -> Nsm.create_kernel hosta ~name:"nsm" ~vcpus:nsm_cores ()
    | `Mtcp -> Nsm.create_mtcp hosta ~name:"nsm" ~vcpus:nsm_cores ()
  in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus ~ips:[ ip_server ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:16 ~ips:client_ips
      ~profile:Sim.Cost_profile.ideal ()
  in
  (tb, vm, client, nsm)

(* send throughput: server VM sends to remote sink *)
let send_tput name (tb : Testbed.t) sender_api sink_api ~streams ~msg =
  let sink_addr = Addr.make ip_client 5001 in
  let sink =
    Tcpstack.Types.get_exn "sink" (Nkapps.Stream.sink ~engine:tb.engine ~api:sink_api ~addr:sink_addr)
  in
  ignore
    (Nkapps.Stream.senders ~engine:tb.engine ~api:sender_api ~dst:sink_addr ~streams
       ~msg_size:msg ~start:(Sim.Engine.now tb.engine +. 1e-3) ~stop:1.0 ());
  Testbed.run tb ~until:1.2;
  Printf.printf "%-40s %6.1f Gbps\n%!" name (Nkapps.Stream.sink_throughput_gbps sink)

(* receive throughput: remote senders to server VM sink *)
let recv_tput name (tb : Testbed.t) server_api client_api ~streams ~msg =
  let sink_addr = Addr.make ip_server 5001 in
  let sink =
    Tcpstack.Types.get_exn "sink" (Nkapps.Stream.sink ~engine:tb.engine ~api:server_api ~addr:sink_addr)
  in
  ignore
    (Nkapps.Stream.senders ~engine:tb.engine ~api:client_api ~dst:sink_addr ~streams
       ~msg_size:msg ~start:(Sim.Engine.now tb.engine +. 1e-3) ~stop:1.0 ());
  Testbed.run tb ~until:1.2;
  Printf.printf "%-40s %6.1f Gbps\n%!" name (Nkapps.Stream.sink_throughput_gbps sink)

let rps name (tb : Testbed.t) server_api client_api ~conc ~total =
  let addr = Addr.make ip_server 80 in
  let _srv =
    Tcpstack.Types.get_exn "epoll server"
      (Nkapps.Epoll_server.start ~engine:tb.engine ~api:server_api
         (Nkapps.Epoll_server.config
            ~proto:(Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false })
            addr))
  in
  let lg =
    Nkapps.Loadgen.start ~engine:tb.engine ~api:client_api
      ~start:(Sim.Engine.now tb.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = addr;
        proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false };
        mode = Nkapps.Loadgen.Closed { concurrency = conc; total = Some total; duration = None };
        warmup = 0.0;
      }
  in
  Testbed.run tb ~until:60.0;
  let r = Nkapps.Loadgen.results lg in
  Printf.printf "%-40s %8.0f rps  (errors %d, mean lat %.2f ms)\n%!" name
    r.Nkapps.Loadgen.rps r.Nkapps.Loadgen.errors
    (Nkutil.Histogram.mean r.Nkapps.Loadgen.latency *. 1e3)

let () =
  (* Paper anchors:
     - 8-stream 16KB send, 1 core: 55.2G | receive: 13.6..17.4G
     - single stream 16KB send: 30.9G
     - RPS 64B conc100: ~70K (kernel), 190K (mtcp, 1 core)
     - 8 cores RPS: ~400K kernel *)
  (let tb, vm, client = baseline_world () in
   send_tput "baseline 1-core send 8x16KB (55.2G)" tb (Vm.api vm) (Vm.api client) ~streams:8
     ~msg:16384);
  (let tb, vm, client = baseline_world () in
   send_tput "baseline 1-core send 1x16KB (30.9G)" tb (Vm.api vm) (Vm.api client) ~streams:1
     ~msg:16384);
  (let tb, vm, client = baseline_world () in
   recv_tput "baseline 1-core recv 8x16KB (17.4G)" tb (Vm.api vm) (Vm.api client) ~streams:8
     ~msg:16384);
  (let tb, vm, client = baseline_world ~vcpus:3 () in
   send_tput "baseline 3-core send 8x8KB (100G)" tb (Vm.api vm) (Vm.api client) ~streams:8
     ~msg:8192);
  (let tb, vm, client = baseline_world ~vcpus:8 () in
   recv_tput "baseline 8-core recv 8x8KB (91G)" tb (Vm.api vm) (Vm.api client) ~streams:8
     ~msg:8192);
  (let tb, vm, client = baseline_world () in
   rps "baseline 1-core rps (70K)" tb (Vm.api vm) (Vm.api client) ~conc:100 ~total:50_000);
  (let tb, vm, client = baseline_world ~vcpus:8 () in
   rps "baseline 8-core rps (400K)" tb (Vm.api vm) (Vm.api client) ~conc:1000 ~total:200_000);
  (let tb, vm, client, _ = nk_world () in
   send_tput "NK 1c/1c send 8x16KB (55G)" tb (Vm.api vm) (Vm.api client) ~streams:8
     ~msg:16384);
  (let tb, vm, client, _ = nk_world () in
   recv_tput "NK 1c/1c recv 8x16KB (17G)" tb (Vm.api vm) (Vm.api client) ~streams:8
     ~msg:16384);
  (let tb, vm, client, _ = nk_world () in
   rps "NK kernel 1c rps (70K)" tb (Vm.api vm) (Vm.api client) ~conc:100 ~total:50_000);
  (let tb, vm, client, _ = nk_world ~kind:`Mtcp () in
   rps "NK mtcp 1c rps (190K)" tb (Vm.api vm) (Vm.api client) ~conc:100 ~total:50_000);
  (let tb, vm, client, _ = nk_world ~vcpus:8 ~kind:`Mtcp ~nsm_cores:8 () in
   rps "NK mtcp 8c/8c rps (1.1M)" tb (Vm.api vm) (Vm.api client) ~conc:1000 ~total:200_000);
  (let tb, vm, client, _ = nk_world ~vcpus:8 ~nsm_cores:8 () in
   rps "NK kernel 8c/8c rps (400K)" tb (Vm.api vm) (Vm.api client) ~conc:1000 ~total:200_000)
