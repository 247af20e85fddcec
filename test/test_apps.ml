(* Application-layer tests over the baseline stack: server/loadgen contracts,
   HTTP end-to-end, pacing, open-loop rates, and the direct mTCP API. *)

open Tcpstack
module E = Sim.Engine

let ip_server = 1
let ip_client = 2

let world () = World.create ()

let server_endpoint w = World.add_endpoint w ~name:"server" ~ip:ip_server

let client_endpoint w =
  World.add_endpoint w ~name:"client" ~ip:ip_client ~profile:Sim.Cost_profile.ideal
    ~cores:4

let fixed n = Nkapps.Proto.Fixed { request = n; response = n; keepalive = false }

let run_loadgen w (server : World.endpoint) (client : World.endpoint) ~proto ~total
    ~concurrency =
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
          (Nkapps.Epoll_server.config ~proto (Addr.make ip_server 80))));
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      ~start:(E.now w.World.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto;
        mode = Nkapps.Loadgen.Closed { concurrency; total = Some total; duration = None };
        warmup = 0.0;
      }
  in
  World.run w ~until:60.0;
  Nkapps.Loadgen.results lg

let loadgen_completes_exactly () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let r = run_loadgen w server client ~proto:(fixed 64) ~total:1500 ~concurrency:32 in
  Alcotest.(check int) "completed" 1500 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "errors" 0 r.Nkapps.Loadgen.errors;
  Alcotest.(check int) "latency samples" 1500 (Nkutil.Histogram.count r.Nkapps.Loadgen.latency)

(* [Loadgen.start ~start]: the generator exists at once but issues nothing
   before [start], and a closed-loop [duration] counts from [start], not
   from the call. The client API is wrapped to timestamp every socket()
   call, i.e. every request the generator issues. *)
let deferred_start = 0.25

let deferred_duration = 0.1

let deferred_run ~seed =
  let w = World.create ~seed () in
  let server = server_endpoint w and client = client_endpoint w in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
          (Nkapps.Epoll_server.config ~proto:(fixed 64) (Addr.make ip_server 80))));
  let issued = ref [] in
  let api =
    {
      client.World.api with
      Socket_api.socket =
        (fun () ->
          issued := E.now w.World.engine :: !issued;
          client.World.api.Socket_api.socket ());
    }
  in
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api ~start:deferred_start
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto = fixed 64;
        mode =
          Nkapps.Loadgen.Closed
            { concurrency = 8; total = None; duration = Some deferred_duration };
        warmup = 0.0;
      }
  in
  World.run w ~until:(deferred_start -. 1e-3);
  let before = (Nkapps.Loadgen.results lg, List.length !issued) in
  World.run w ~until:1.0;
  (before, Nkapps.Loadgen.results lg, List.rev !issued)

let loadgen_deferred_start () =
  let (r0, issued0), r, issued = deferred_run ~seed:42 in
  Alcotest.(check int) "no request before start" 0 issued0;
  Alcotest.(check int) "nothing completed before start" 0 r0.Nkapps.Loadgen.completed;
  Alcotest.(check (float 0.0)) "started = start" deferred_start r.Nkapps.Loadgen.started;
  if r.Nkapps.Loadgen.completed = 0 then Alcotest.fail "no load after start";
  Alcotest.(check int) "one socket per request" (List.length issued)
    (r.Nkapps.Loadgen.completed + r.Nkapps.Loadgen.errors);
  List.iter
    (fun t ->
      if t < deferred_start || t >= deferred_start +. deferred_duration then
        Alcotest.failf "request issued at %.6fs, outside [start, start + duration)" t)
    issued

let loadgen_deferred_start_deterministic () =
  let summary (_, (r : Nkapps.Loadgen.results), issued) =
    ( (r.completed, r.errors, r.response_bytes),
      (r.started, r.finished),
      (Nkutil.Histogram.count r.latency, Nkutil.Histogram.percentile r.latency 99.0),
      issued )
  in
  Alcotest.(check bool) "same seed, identical run" true
    (summary (deferred_run ~seed:7) = summary (deferred_run ~seed:7))

let get_exn_names_the_step () =
  Alcotest.(check int) "Ok passes through" 3 (Types.get_exn "unused" (Ok 3));
  Alcotest.check_raises "Error raises Failure \"what: <err>\"" (Failure "bind: EADDRINUSE")
    (fun () -> ignore (Types.get_exn "bind" (Error Types.Eaddrinuse)))

let server_counts_match () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let srv =
    Types.get_exn "server"
      (Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
         (Nkapps.Epoll_server.config ~proto:(fixed 128) (Addr.make ip_server 81)))
  in
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      ~start:(E.now w.World.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = Addr.make ip_server 81;
        proto = fixed 128;
        mode = Nkapps.Loadgen.Closed { concurrency = 8; total = Some 400; duration = None };
        warmup = 0.0;
      }
  in
  World.run w ~until:30.0;
  let r = Nkapps.Loadgen.results lg in
  let s = Nkapps.Epoll_server.stats srv in
  Alcotest.(check int) "client completed" 400 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "server served" 400 s.Nkapps.Epoll_server.requests;
  Alcotest.(check int) "server accepted" 400 s.Nkapps.Epoll_server.accepted;
  Alcotest.(check int) "request bytes" (400 * 128) s.Nkapps.Epoll_server.bytes_in

let http_end_to_end () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let proto = Nkapps.Proto.Http { path = "/x.html"; response = 512; keepalive = false } in
  let r = run_loadgen w server client ~proto ~total:500 ~concurrency:16 in
  Alcotest.(check int) "completed" 500 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "errors" 0 r.Nkapps.Loadgen.errors

let open_loop_rate () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
          (Nkapps.Epoll_server.config ~proto:(fixed 64) (Addr.make ip_server 80))));
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto = fixed 64;
        mode = Nkapps.Loadgen.Open { rate_at = (fun _ -> 5000.0); duration = 1.0 };
        warmup = 0.0;
      }
  in
  World.run w ~until:2.0;
  let r = Nkapps.Loadgen.results lg in
  let c = r.Nkapps.Loadgen.completed in
  if c < 4500 || c > 5500 then Alcotest.failf "open loop rate off: %d completions" c

let paced_stream () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let sink =
    Types.get_exn "sink"
      (Nkapps.Stream.sink ~engine:w.World.engine ~api:server.World.api
         ~addr:(Addr.make ip_server 5001))
  in
  ignore
    (Nkapps.Stream.senders ~engine:w.World.engine ~api:client.World.api
       ~dst:(Addr.make ip_server 5001) ~streams:2 ~msg_size:16384 ~pace_gbps:2.0
       ~start:(E.now w.World.engine +. 1e-3) ~stop:1.0 ());
  World.run w ~until:1.2;
  let gbps = Nkapps.Stream.sink_throughput_gbps sink in
  if gbps < 1.6 || gbps > 2.2 then Alcotest.failf "pacing off: %.2f Gbps" gbps

let kvstore_baseline () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  ignore
    (Types.get_exn "kv"
       (Nkapps.Kvstore.start ~engine:w.World.engine ~api:server.World.api
          ~addr:(Addr.make ip_server 6379)));
  let got = ref None in
  Nkapps.Kvstore.Client.connect ~engine:w.World.engine ~api:client.World.api
    (Addr.make ip_server 6379) ~k:(fun r ->
      let conn = Types.get_exn "connect" r in
      Nkapps.Kvstore.Client.set conn ~key:"a b" ~value:"with spaces too" ~k:(fun _ ->
          Nkapps.Kvstore.Client.get conn ~key:"a" ~k:(fun r1 ->
              (match r1 with
              | Ok None -> () (* "a b" was parsed as key "a"? no: SET a b -> key "a" value "b ..." *)
              | Ok (Some _) -> ()
              | Error e -> Alcotest.failf "get: %s" e);
              Nkapps.Kvstore.Client.get conn ~key:"a b" ~k:(fun _ ->
                  Nkapps.Kvstore.Client.set conn ~key:"k" ~value:"v" ~k:(fun _ ->
                      Nkapps.Kvstore.Client.get conn ~key:"k" ~k:(fun r ->
                          (match r with
                          | Ok v -> got := v
                          | Error e -> Alcotest.failf "get k: %s" e);
                          Nkapps.Kvstore.Client.close conn))))));
  World.run w ~until:5.0;
  Alcotest.(check (option string)) "kv roundtrip" (Some "v") !got

let mtcp_direct_api () =
  (* An "mTCP application" linked against the sharded library directly. *)
  let w = world () in
  let client = client_endpoint w in
  let nic = Nic.create w.World.engine ~name:"mtcp.nic" () in
  Fabric.attach w.World.fabric nic;
  Fabric.add_route w.World.fabric ip_server nic;
  let vswitch = Vswitch.create w.World.engine ~nic () in
  let cores = Sim.Cpu.Set.create w.World.engine ~name:"mtcp" ~n:4 () in
  let mtcp =
    Mtcpstack.Mtcp.create ~engine:w.World.engine ~name:"mtcp" ~cores ~vswitch
      ~registry:w.World.registry ~rng:(Nkutil.Rng.create ~seed:5) ()
  in
  Mtcpstack.Mtcp.add_ip mtcp ip_server;
  let api = Mtcpstack.Mtcp.api mtcp in
  ignore
    (Types.get_exn "mtcp server"
       (Nkapps.Epoll_server.start ~engine:w.World.engine ~api
          (Nkapps.Epoll_server.config ~proto:(fixed 64) (Addr.make ip_server 80))));
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      ~start:(E.now w.World.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto = fixed 64;
        mode =
          Nkapps.Loadgen.Closed { concurrency = 32; total = Some 2000; duration = None };
        warmup = 0.0;
      }
  in
  World.run w ~until:30.0;
  let r = Nkapps.Loadgen.results lg in
  Alcotest.(check int) "mtcp served all" 2000 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "no errors" 0 r.Nkapps.Loadgen.errors;
  (* all shards participated (RSS spread) *)
  let active =
    List.filter
      (fun (s : Stack.stats) -> s.Stack.conns_established > 0)
      (Mtcpstack.Mtcp.stats mtcp)
  in
  if List.length active < 3 then
    Alcotest.failf "poor RSS spread: only %d/4 shards active" (List.length active)

let tests =
  [
    Alcotest.test_case "loadgen completes exactly" `Quick loadgen_completes_exactly;
    Alcotest.test_case "loadgen deferred start" `Quick loadgen_deferred_start;
    Alcotest.test_case "loadgen deferred start is deterministic" `Quick
      loadgen_deferred_start_deterministic;
    Alcotest.test_case "get_exn names the failed step" `Quick get_exn_names_the_step;
    Alcotest.test_case "server/client counters agree" `Quick server_counts_match;
    Alcotest.test_case "HTTP end to end" `Quick http_end_to_end;
    Alcotest.test_case "open-loop rate" `Quick open_loop_rate;
    Alcotest.test_case "paced stream" `Quick paced_stream;
    Alcotest.test_case "kv store over baseline" `Quick kvstore_baseline;
    Alcotest.test_case "mtcp direct API + RSS spread" `Quick mtcp_direct_api;
  ]
