(* Use case 3 (§6.3): deploying mTCP without any API change.

   The SAME unmodified HTTP server and the SAME ab-style client run twice;
   the only difference is one line in the infrastructure setup — which NSM
   the operator attaches the VM to. No kernel bypass setup, no mtcp_epoll
   porting, no driver debugging in the tenant's world.

     dune exec examples/mtcp_no_api_change.exe *)

open Nkcore

let proto = Nkapps.Proto.Http { path = "/index.html"; response = 64; keepalive = false }

let run_with ~nsm_kind =
  let tb = Testbed.create () in
  let host_a = Testbed.add_host tb ~name:"hostA" in
  let host_b = Testbed.add_host tb ~name:"hostB" in
  let nsm =
    (* The operator's one-line deployment decision: *)
    match nsm_kind with
    | `Kernel -> Nsm.create_kernel host_a ~name:"nsm" ~vcpus:2 ()
    | `Mtcp -> Nsm.create_mtcp host_a ~name:"nsm" ~vcpus:2 ()
  in
  let vm = Vm.create_nk host_a ~name:"nginx-vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline host_b ~name:"ab" ~vcpus:8
      ~ips:[ 20; 21; 22; 23 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* Tenant side: the same unmodified "nginx". *)
  let addr = Addr.make 10 80 in
  ignore
    (Tcpstack.Types.get_exn "epoll server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto addr)));
  (* The same unmodified "ab". *)
  let lg =
    Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
      ~start:(Sim.Engine.now tb.Testbed.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = addr;
        proto;
        mode = Nkapps.Loadgen.Closed { concurrency = 100; total = Some 30_000; duration = None };
        warmup = 0.0;
      }
  in
  Testbed.run tb ~until:30.0;
  Nkapps.Loadgen.results lg

let () =
  print_endline "running unmodified nginx+ab over the kernel-stack NSM...";
  let kernel = run_with ~nsm_kind:`Kernel in
  print_endline "swapping the NSM to mTCP (no tenant change) and rerunning...";
  let mtcp = run_with ~nsm_kind:`Mtcp in
  Printf.printf "\n%-22s %10s %8s\n" "NSM" "RPS" "errors";
  Printf.printf "%-22s %10.0f %8d\n" "linux-kernel"
    kernel.Nkapps.Loadgen.rps kernel.Nkapps.Loadgen.errors;
  Printf.printf "%-22s %10.0f %8d\n" "mTCP (DPDK, polling)" mtcp.Nkapps.Loadgen.rps
    mtcp.Nkapps.Loadgen.errors;
  Printf.printf "\nmTCP speedup: %.2fx — with zero application changes.\n"
    (mtcp.Nkapps.Loadgen.rps /. kernel.Nkapps.Loadgen.rps)
