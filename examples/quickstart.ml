(* Quickstart: a VM whose network stack lives in the infrastructure.

   We build the paper's Figure 1(b) in a few lines:
     - a host with a CoreEngine (enabled implicitly by the first NSM),
     - a kernel-stack NSM (the operator's network stack),
     - a user VM attached to it — its BSD-socket API is served by GuestLib
       over NQEs, not by an in-guest stack,
     - a client machine on the other side of a 100G fabric.

   The application code below is ordinary socket code; nothing in it knows
   whether the stack is in the guest or in the NSM. Run with:

     dune exec examples/quickstart.exe *)

open Nkcore
module Types = Tcpstack.Types
module Api = Tcpstack.Socket_api

let ( >>= ) r f = f (Types.get_exn "socket call" r)

let () =
  (* Infrastructure (operator side). *)
  let tb = Testbed.create () in
  let host_a = Testbed.add_host tb ~name:"hostA" in
  let host_b = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel host_a ~name:"kernel-nsm" ~vcpus:2 () in
  let vm = Vm.create_nk host_a ~name:"tenant-vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline host_b ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in

  (* Application (tenant side): a plain echo server on port 7. *)
  let server_api = Vm.api vm in
  let addr = Addr.make 10 7 in
  server_api.Api.socket () >>= fun ls ->
  server_api.Api.bind ls addr >>= fun () ->
  server_api.Api.listen ls ~backlog:64 >>= fun () ->
  let rec serve () =
    server_api.Api.accept ls ~k:(fun r ->
        match r with
        | Error _ -> ()
        | Ok (fd, peer) ->
            Printf.printf "[server] accepted connection from %d:%d\n" peer.Addr.ip
              peer.Addr.port;
            let rec echo () =
              server_api.Api.recv fd ~max:4096 ~mode:`Copy ~k:(fun r ->
                  match r with
                  | Ok (Types.Data "") ->
                      Printf.printf "[server] peer closed, closing too\n";
                      server_api.Api.close fd
                  | Ok (Types.Data s) ->
                      Printf.printf "[server] echoing %S\n" s;
                      server_api.Api.send fd (Types.Data s) ~k:(fun _ -> echo ())
                  | Ok (Types.Zeros _) -> echo ()
                  | Error Types.Eagain ->
                      ignore
                        (Sim.Engine.schedule tb.Testbed.engine ~delay:20e-6 echo)
                  | Error e ->
                      Printf.printf "[server] error: %s\n" (Types.err_to_string e))
            in
            echo ();
            serve ())
  in
  serve ();

  (* Client: connect, send, read the echo. *)
  let client_api = Vm.api client in
  client_api.Api.socket () >>= fun fd ->
  client_api.Api.connect fd addr ~k:(fun r ->
      Types.get_exn "connect" r;
      Printf.printf "[client] connected through the NSM\n";
      client_api.Api.send fd (Types.Data "hello, netkernel!") ~k:(fun _ ->
          let rec await () =
            client_api.Api.recv fd ~max:4096 ~mode:`Copy ~k:(fun r ->
                match r with
                | Ok (Types.Data s) when s <> "" ->
                    Printf.printf "[client] got echo: %S\n" s;
                    client_api.Api.close fd
                | Ok _ -> await ()
                | Error Types.Eagain ->
                    ignore (Sim.Engine.schedule tb.Testbed.engine ~delay:20e-6 await)
                | Error e -> failwith (Types.err_to_string e))
          in
          await ()));

  Testbed.run tb ~until:1.0;
  let gl = Option.get (Vm.guestlib vm) in
  let s = Guestlib.stats gl in
  Printf.printf
    "\nGuestLib moved %d NQEs out / %d in; CoreEngine switched %d NQEs total.\n"
    s.Guestlib.nqes_tx s.Guestlib.nqes_rx
    (Coreengine.stats (Host.coreengine host_a)).Coreengine.switched;
  print_endline "quickstart complete."
