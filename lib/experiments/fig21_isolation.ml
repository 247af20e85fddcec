(* Fig 21: isolation between VMs sharing one NSM.

   Three NK VMs share a 1-vCPU kernel-stack NSM with a 10G uplink. VM1 is
   capped at 1 Gb/s (joins at 0s, leaves at 25s), VM2 at 500 Mb/s (4.5s to
   21s), VM3 is uncapped (8s to 30s). CoreEngine token buckets enforce the
   caps; VM3 takes the remaining capacity, work-conserving.

   Paper: VM1 and VM2 pinned at their caps; VM3 gets ~8.5G, then 9G after
   VM2 leaves, 10G after VM1 leaves. *)

open Nkcore

let run ?(quick = false) () =
  let horizon = if quick then 15.0 else 30.0 in
  let scale = horizon /. 30.0 in
  let tb = Testbed.create ~config:{ Testbed.Config.default with rate_gbps = 10.0 } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:1 () in
  let vms =
    List.init 3 (fun i ->
        Vm.create_nk hosta ~name:(Printf.sprintf "vm%d" (i + 1)) ~vcpus:1
          ~ips:[ 10 + i ] ~nsms:[ nsm ] ())
  in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:16 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let ce = Host.coreengine hosta in
  Coreengine.set_rate_limit ce ~vm_id:(Vm.vm_id (List.nth vms 0))
    ~bytes_per_sec:(1e9 /. 8.0);
  Coreengine.set_rate_limit ce ~vm_id:(Vm.vm_id (List.nth vms 1))
    ~bytes_per_sec:(0.5e9 /. 8.0);
  (* One sink per VM so throughput is attributable. *)
  let sinks =
    List.mapi
      (fun i _vm ->
        Tcpstack.Types.get_exn "sink"
          (Nkapps.Stream.sink ~engine:tb.Testbed.engine ~api:(Vm.api client)
             ~addr:(Addr.make 20 (5001 + i))))
      vms
  in
  let windows = [ (0.0, 25.0); (4.5, 21.0); (8.0, 30.0) ] in
  List.iteri
    (fun i vm ->
      let start, stop = List.nth windows i in
      ignore
        (Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm)
           ~dst:(Addr.make 20 (5001 + i))
           ~streams:4 ~msg_size:65536
           ~start:(Float.max 1e-3 (start *. scale))
           ~stop:(stop *. scale) ()))
    vms;
  Testbed.run tb ~until:(horizon +. 0.2);
  (* Report 1-second average throughput per VM (the figure's series). *)
  let series = List.map Nkapps.Stream.sink_timeseries sinks in
  let seconds = int_of_float horizon in
  let rows =
    List.init seconds (fun sec ->
        let cell ts =
          (* sum ten 100ms bins *)
          let bytes = ref 0.0 in
          for b = sec * 10 to (sec * 10) + 9 do
            bytes := !bytes +. Nkutil.Timeseries.get ts b
          done;
          Printf.sprintf "%.2f" (!bytes *. 8.0 /. 1e9)
        in
        string_of_int sec :: List.map cell series)
  in
  Report.make ~id:"fig21"
    ~title:"Isolation: per-VM throughput (Gb/s per 1s bin), shared kernel NSM on 10G"
    ~headers:[ "t (s)"; "VM1 (cap 1G)"; "VM2 (cap 0.5G)"; "VM3 (uncapped)" ]
    ~notes:
      [
        "paper: VM1/VM2 pinned at caps through arrivals/departures; VM3 work-conserving \
         (~8.5G, 9G after VM2 leaves, 10G after VM1 leaves)";
        (if quick then "time compressed 2x for the quick run" else "full 30s run");
      ]
    rows
