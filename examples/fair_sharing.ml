(* Use case 2 (§6.2): VM-level fair bandwidth sharing.

   A selfish VM opens 16 flows against a well-behaved VM's 8. With per-flow
   TCP the selfish VM grabs ~2/3 of the link; with the VM-level congestion
   control NSM each VM holds one shared window and the split returns to
   ~50/50.

     dune exec examples/fair_sharing.exe *)

open Nkcore
module T = Tcpstack

let run ~label ~mk_vm =
  let tb = Testbed.create
      ~config:
        { Testbed.Config.default with rate_gbps = 10.0; buffer_bytes = Some (1024 * 1024) }
      () in
  let host_a = Testbed.add_host tb ~name:"hostA" in
  let host_b = Testbed.add_host tb ~name:"hostB" in
  let vm1 = mk_vm host_a "fair-vm" 10 in
  let vm2 = mk_vm host_a "selfish-vm" 11 in
  let client =
    Vm.create_baseline host_b ~name:"sink" ~vcpus:16 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let sink port =
    T.Types.get_exn "sink"
      (Nkapps.Stream.sink ~engine:tb.Testbed.engine ~api:(Vm.api client)
         ~addr:(Addr.make 20 port))
  in
  let s1 = sink 5001 and s2 = sink 5002 in
  let start = Sim.Engine.now tb.Testbed.engine +. 1e-3 in
  ignore
    (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm1)
       ~dst:(Addr.make 20 5001) ~streams:8 ~msg_size:16384 ~start ~stop:2.0 ());
  ignore
    (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm2)
       ~dst:(Addr.make 20 5002) ~streams:16 ~msg_size:16384 ~start ~stop:2.0 ());
  Testbed.run tb ~until:2.1;
  let g1 = Nkapps.Stream.sink_throughput_gbps s1 in
  let g2 = Nkapps.Stream.sink_throughput_gbps s2 in
  Printf.printf "%-38s fair VM %4.1f G | selfish VM %4.1f G | Jain %.2f\n%!" label g1 g2
    (Nkutil.Stats.jain_fairness [| g1; g2 |])

let () =
  print_endline "8 flows (fair VM) vs 16 flows (selfish VM) over a shared 10G link:\n";
  run ~label:"Baseline (per-flow CUBIC)" ~mk_vm:(fun host name ip ->
      Vm.create_baseline host ~name ~vcpus:2 ~ips:[ ip ] ());
  run ~label:"NetKernel (VM-level CC NSM)" ~mk_vm:(fun host name ip ->
      let group = T.Cc_vm.create_group ~mss:Segment.mss () in
      let nsm =
        Nsm.create_kernel host ~name:(name ^ ".nsm") ~vcpus:2
          ~cc_factory:(T.Cc_vm.factory group) ()
      in
      Vm.create_nk host ~name ~vcpus:2 ~ips:[ ip ] ~nsms:[ nsm ] ());
  print_endline
    "\nWith the VM-level controller each VM keeps one congestion window, so\n\
     opening more flows buys the selfish VM nothing (the paper's Fig 9)."
