(* Use case 1 (§6.1): multiplexing bursty application gateways on one NSM.

   Three AGs replay bursty traces. Today each runs as a fat VM with its own
   stack; under NetKernel each keeps one core of application logic and the
   common TCP work lands on one shared NSM — fewer cores, same service.

     dune exec examples/multiplexing_gateways.exe *)

open Nkcore

let duration = 10.0

let proto = Nkapps.Proto.Fixed { request = 256; response = 1024; keepalive = false }

let replay ~label ~cores_used ~mk_vm =
  let tb = Testbed.create () in
  let host_a = Testbed.add_host tb ~name:"hostA" in
  let host_b = Testbed.add_host tb ~name:"hostB" in
  let fleet = Nktrace.Traffic.generate_fleet ~seed:2018 ~n:64 () in
  let traces = Nktrace.Traffic.top_k_by_utilization fleet 3 in
  let client =
    Vm.create_baseline host_b ~name:"tenants" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 20 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  let lgs =
    List.mapi
      (fun i (trace : Nktrace.Traffic.t) ->
        let vm = mk_vm host_a i in
        let addr = Addr.make (10 + i) 80 in
        ignore
          (Tcpstack.Types.get_exn "epoll server"
             (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
                (Nkapps.Epoll_server.config ~proto ~app_cycles:30_000.0
                   ~app_cores:(Vm.cores vm) addr)));
        Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
          ~start:(Sim.Engine.now tb.Testbed.engine +. 1e-3)
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Open
                {
                  (* one trace minute per second, half rate *)
                  rate_at = (fun t -> 0.5 *. Nktrace.Traffic.rate_at trace (t *. 60.0));
                  duration;
                };
            warmup = 0.0;
          })
      traces
  in
  Testbed.run tb ~until:(duration +. 0.5);
  let served, errors =
    List.fold_left
      (fun (c, e) lg ->
        let r = Nkapps.Loadgen.results lg in
        (c + r.Nkapps.Loadgen.completed, e + r.Nkapps.Loadgen.errors))
      (0, 0) lgs
  in
  Printf.printf "%-44s cores=%2d served=%6d errors=%d per-core=%5.0f rps\n%!" label
    cores_used served errors
    (float_of_int served /. duration /. float_of_int cores_used);
  ()

let () =
  print_endline "replaying 3 bursty application gateways for 10s:\n";
  replay ~label:"Baseline: 3 x 4-core VMs (own stacks)" ~cores_used:12 ~mk_vm:(fun host i ->
      Vm.create_baseline host
        ~name:(Printf.sprintf "ag%d" i)
        ~vcpus:4
        ~ips:[ 10 + i ]
        ());
  let shared_nsm = ref None in
  replay ~label:"NetKernel: 3 x 1-core VMs + 5-core NSM + CE" ~cores_used:9
    ~mk_vm:(fun host i ->
      let nsm =
        match !shared_nsm with
        | Some n -> n
        | None ->
            let n = Nsm.create_kernel host ~name:"shared-nsm" ~vcpus:5 () in
            shared_nsm := Some n;
            n
      in
      Vm.create_nk host
        ~name:(Printf.sprintf "ag%d" i)
        ~vcpus:1
        ~ips:[ 10 + i ]
        ~nsms:[ nsm ] ());
  print_endline
    "\nSame service from 9 cores instead of 12: the bursty stacks statistically\n\
     multiplex inside the shared NSM (the paper's >40% core saving at scale)."
