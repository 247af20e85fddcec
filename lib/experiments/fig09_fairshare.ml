(* Fig 9 (use case 2, §6.2): VM-level fair bandwidth sharing.

   A well-behaved VM with 8 flows competes with a selfish VM running 1..16
   flows over a shared 10G uplink.

   - Baseline: per-flow CUBIC — the selfish VM's share grows with its flow
     count (TCP flow-level fairness).
   - NetKernel: each VM's NSM runs the VM-level congestion controller
     ({!Tcpstack.Cc_vm}): one shared window per VM — the split stays ~50/50
     regardless of flow count. *)

open Nkcore
module T = Tcpstack

let flow_counts = [ 1; 2; 4; 8; 16 ]

let run_pair ~system ~selfish_flows ~duration =
  (* A shallow drop-tail switch buffer (1MB at 10G) so losses — not receive
     windows — govern the shares; synchronized overflow losses are exactly
     the signal the Seawall-style shared window divides fairly. *)
  let tb = Testbed.create
      ~config:
        { Testbed.Config.default with rate_gbps = 10.0; buffer_bytes = Some (1024 * 1024) }
      () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let mk_vm name ip =
    match system with
    | `Baseline -> Vm.create_baseline hosta ~name ~vcpus:2 ~ips:[ ip ] ()
    | `Netkernel ->
        (* One VM-CC NSM per VM: all of the VM's flows share one window. *)
        let group = T.Cc_vm.create_group ~mss:Segment.mss () in
        let nsm =
          Nsm.create_kernel hosta ~name:(name ^ ".nsm") ~vcpus:2
            ~cc_factory:(T.Cc_vm.factory group) ()
        in
        Vm.create_nk hosta ~name ~vcpus:2 ~ips:[ ip ] ~nsms:[ nsm ] ()
  in
  let vm1 = mk_vm "fair-vm" 10 in
  let vm2 = mk_vm "selfish-vm" 11 in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:16 ~ips:[ 20 ]
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
       ~dst:(Addr.make 20 5001) ~streams:8 ~msg_size:16384 ~start ~stop:duration ());
  ignore
    (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm2)
       ~dst:(Addr.make 20 5002) ~streams:selfish_flows ~msg_size:16384 ~start
       ~stop:duration ());
  Testbed.run tb ~until:(duration +. 0.1);
  (* Measure the steady second half of the run, past slow-start convergence. *)
  let steady sink =
    let ts = Nkapps.Stream.sink_timeseries sink in
    let bins = Nkutil.Timeseries.num_bins ts in
    let from = bins / 2 in
    let bytes = ref 0.0 in
    for b = from to bins - 1 do
      bytes := !bytes +. Nkutil.Timeseries.get ts b
    done;
    !bytes *. 8.0 /. (float_of_int (Int.max 1 (bins - from)) *. 0.1) /. 1e9
  in
  (steady s1, steady s2)

let run ?(quick = false) () =
  let duration = if quick then 2.0 else 6.0 in
  let rows =
    List.map
      (fun selfish_flows ->
        let b1, b2 = run_pair ~system:`Baseline ~selfish_flows ~duration in
        let n1, n2 = run_pair ~system:`Netkernel ~selfish_flows ~duration in
        [
          string_of_int selfish_flows;
          Printf.sprintf "%.1f / %.1f" b1 b2;
          Printf.sprintf "%.1f / %.1f" n1 n2;
          Printf.sprintf "%.2f"
            (Nkutil.Stats.jain_fairness [| n1; n2 |]);
        ])
      flow_counts
  in
  Report.make ~id:"fig09"
    ~title:
      "VM-level fair sharing on 10G: well-behaved VM (8 flows) vs selfish VM (N flows)"
    ~headers:
      [ "selfish flows"; "Baseline G (vm1/vm2)"; "NetKernel+VMCC G (vm1/vm2)"; "NK Jain" ]
    ~notes:
      [
        "paper: with the VM-level CC NSM the split stays ~equal regardless of flow count; \
         baseline TCP gives the selfish VM share proportional to its flows";
      ]
    rows
