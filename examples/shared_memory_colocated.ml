(* Use case 4 (§6.4): shared-memory networking for colocated VMs.

   Two VMs of the same tenant on one host move bulk data. With the
   shared-memory NSM the payload hops hugepage-to-hugepage and skips TCP
   entirely; the baseline runs in-guest TCP through the host vswitch.

     dune exec examples/shared_memory_colocated.exe *)

open Nkcore

let transfer ~label ~mk_vms =
  let tb = Testbed.create () in
  let host = Testbed.add_host tb ~name:"hostA" in
  let vm1, vm2 = mk_vms host in
  let sink =
    Tcpstack.Types.get_exn "sink"
      (Nkapps.Stream.sink ~engine:tb.Testbed.engine ~api:(Vm.api vm2)
         ~addr:(Addr.make 11 9000))
  in
  ignore
    (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm1)
       ~dst:(Addr.make 11 9000) ~streams:8 ~msg_size:65536
       ~start:(Sim.Engine.now tb.Testbed.engine +. 1e-3)
       ~stop:1.0 ());
  Testbed.run tb ~until:1.1;
  let gbps = Nkapps.Stream.sink_throughput_gbps sink in
  Printf.printf "%-34s %6.1f Gb/s\n%!" label gbps;
  gbps

let () =
  print_endline "moving bulk data between two colocated VMs of the same user:\n";
  let baseline =
    transfer ~label:"in-guest TCP via vswitch (7 cores)" ~mk_vms:(fun host ->
        ( Vm.create_baseline host ~name:"vm1" ~vcpus:2 ~ips:[ 10 ] (),
          Vm.create_baseline host ~name:"vm2" ~vcpus:5 ~ips:[ 11 ] () ))
  in
  let shmem =
    transfer ~label:"shared-memory NSM (7 cores)" ~mk_vms:(fun host ->
        let nsm = Nsm.create_shmem host ~name:"shmem" ~vcpus:2 () in
        ( Vm.create_nk host ~name:"vm1" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] (),
          Vm.create_nk host ~name:"vm2" ~vcpus:2 ~ips:[ 11 ] ~nsms:[ nsm ] () ))
  in
  Printf.printf
    "\nThe infrastructure detected colocation and bypassed TCP: %.1fx faster.\n"
    (shmem /. baseline)
