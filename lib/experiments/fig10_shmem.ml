(* Fig 10 (use case 4, §6.4): shared-memory networking between colocated
   VMs of the same user.

   NetKernel: 2-core sending VM + 2-core receiving VM + 2-core shared-memory
   NSM + CoreEngine core (7 cores) moving message chunks hugepage-to-
   hugepage. Baseline: the same VMs with in-guest TCP CUBIC through the
   host vswitch (2-core sender, 5-core receiver, per the paper). 8
   connections both ways.

   Paper: NetKernel ~100 Gb/s, about 2x the ~50 Gb/s Baseline. *)

open Nkcore

let run_one ~system ~duration =
  let tb = Testbed.create () in
  let host = Testbed.add_host tb ~name:"hostA" in
  let vm1, vm2 =
    match system with
    | `Baseline ->
        ( Vm.create_baseline host ~name:"vm1" ~vcpus:2 ~ips:[ 10 ] (),
          Vm.create_baseline host ~name:"vm2" ~vcpus:5 ~ips:[ 11 ] () )
    | `Netkernel ->
        let nsm = Nsm.create_shmem host ~name:"shmem" ~vcpus:2 () in
        ( Vm.create_nk host ~name:"vm1" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] (),
          Vm.create_nk host ~name:"vm2" ~vcpus:2 ~ips:[ 11 ] ~nsms:[ nsm ] () )
  in
  let sink =
    Tcpstack.Types.get_exn "sink"
      (Nkapps.Stream.sink ~engine:tb.Testbed.engine ~api:(Vm.api vm2)
         ~addr:(Addr.make 11 5001))
  in
  ignore
    (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm1)
       ~dst:(Addr.make 11 5001) ~streams:8 ~msg_size:65536
       ~start:(Sim.Engine.now tb.Testbed.engine +. 1e-3)
       ~stop:duration ());
  Testbed.run tb ~until:(duration +. 0.1);
  Nkapps.Stream.sink_throughput_gbps sink

let run ?(quick = false) () =
  let duration = if quick then 0.5 else 1.0 in
  let baseline = run_one ~system:`Baseline ~duration in
  let nk = run_one ~system:`Netkernel ~duration in
  Report.make ~id:"fig10"
    ~title:"Colocated same-user VMs: shared-memory NSM vs in-guest TCP (CUBIC)"
    ~headers:[ "system"; "cores"; "Gb/s" ]
    ~notes:
      [
        "paper: NetKernel+shmem NSM ~100 Gb/s with 7 cores total, ~2x Baseline (~50 Gb/s)";
        "the shmem NSM copies chunks hugepage-to-hugepage, no transport processing";
      ]
    [
      [ "Baseline (TCP via vswitch)"; "7 (2 snd + 5 rcv)"; Report.cell_gbps baseline ];
      [ "NetKernel (shmem NSM)"; "7 (2+2 VMs, 2 NSM, 1 CE)"; Report.cell_gbps nk ];
      [ "speedup"; ""; Printf.sprintf "%.1fx" (nk /. baseline) ];
    ]
