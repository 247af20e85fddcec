(* Stack-level unit tests: binding, port allocation, listener lifecycle,
   RST behaviour, zero-window persist probing, TIME_WAIT reuse. *)

open Tcpstack
module E = Sim.Engine

let ip_a = 1
let ip_b = 2

let bind_conflicts () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a in
  let s1 = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
  Types.get_exn "bind" (a.World.api.Socket_api.bind s1 (Addr.make ip_a 80));
  Types.get_exn "listen" (a.World.api.Socket_api.listen s1 ~backlog:8);
  let s2 = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
  (match a.World.api.Socket_api.bind s2 (Addr.make ip_a 80) with
  | Error Types.Eaddrinuse -> ()
  | Error e -> Alcotest.failf "expected EADDRINUSE, got %s" (Types.err_to_string e)
  | Ok () -> (
      (* bind may record lazily; the listen must then fail *)
      match a.World.api.Socket_api.listen s2 ~backlog:8 with
      | Error Types.Eaddrinuse -> ()
      | Error e -> Alcotest.failf "expected EADDRINUSE at listen, got %s" (Types.err_to_string e)
      | Ok () -> Alcotest.fail "two listeners on one endpoint"));
  (* a different port is fine *)
  let s3 = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
  Types.get_exn "bind other port" (a.World.api.Socket_api.bind s3 (Addr.make ip_a 81));
  Types.get_exn "listen other port" (a.World.api.Socket_api.listen s3 ~backlog:8)

let listener_close_fails_waiters () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a in
  let ls = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
  Types.get_exn "bind" (a.World.api.Socket_api.bind ls (Addr.make ip_a 80));
  Types.get_exn "listen" (a.World.api.Socket_api.listen ls ~backlog:8);
  let result = ref None in
  a.World.api.Socket_api.accept ls ~k:(fun r -> result := Some r);
  a.World.api.Socket_api.close ls;
  World.run w ~until:0.1;
  match !result with
  | Some (Error Types.Eclosed) -> ()
  | Some (Error e) -> Alcotest.failf "expected ECLOSED, got %s" (Types.err_to_string e)
  | Some (Ok _) -> Alcotest.fail "accept succeeded on a closed listener"
  | None -> Alcotest.fail "accept waiter never failed"

let rst_for_unknown_flow () =
  let w = World.create () in
  let b = World.add_endpoint w ~name:"b" ~ip:ip_b in
  (* A stray non-SYN segment to a port with no connection gets an RST. *)
  let stray =
    Segment.make
      ~flow:(Addr.Flow.make ~src:(Addr.make ip_a 5555) ~dst:(Addr.make ip_b 4242))
      ~seq:1000 ~ack:0 ~ack_flag:true ~len:100 ()
  in
  Stack.input b.World.stack stray;
  World.run w ~until:0.1;
  Alcotest.(check int) "RST emitted" 1 (Stack.stats b.World.stack).Stack.rst_tx

let ephemeral_ports_recycle () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"client" ~ip:ip_a ~profile:Sim.Cost_profile.ideal in
  let b = World.add_endpoint w ~name:"server" ~ip:ip_b ~profile:Sim.Cost_profile.ideal in
  let ls = Types.get_exn "socket" (b.World.api.Socket_api.socket ()) in
  Types.get_exn "bind" (b.World.api.Socket_api.bind ls (Addr.make ip_b 80));
  Types.get_exn "listen" (b.World.api.Socket_api.listen ls ~backlog:64);
  let rec accept_loop () =
    b.World.api.Socket_api.accept ls ~k:(fun r ->
        match r with
        | Error _ -> ()
        | Ok (fd, _) ->
            b.World.api.Socket_api.close fd;
            accept_loop ())
  in
  accept_loop ();
  (* Far more sequential connections than a single ip could hold open at
     once: ports must be recycled after TIME_WAIT-free client closes. *)
  let completed = ref 0 in
  let total = 2000 in
  let rec one () =
    if !completed < total then begin
      let fd = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
      a.World.api.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
          Types.get_exn "connect" r;
          a.World.api.Socket_api.close fd;
          incr completed;
          ignore (E.schedule w.World.engine ~delay:1e-5 one))
    end
  in
  one ();
  World.run w ~until:60.0;
  Alcotest.(check int) "all sequential connects succeeded" total !completed

let zero_window_persist () =
  (* The receiver never reads: the sender must fill the 256KB window, stall,
     and keep the connection alive with persist probes rather than dying. *)
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a ~profile:Sim.Cost_profile.ideal in
  let b = World.add_endpoint w ~name:"b" ~ip:ip_b ~profile:Sim.Cost_profile.ideal in
  let ls = Types.get_exn "socket" (b.World.api.Socket_api.socket ()) in
  Types.get_exn "bind" (b.World.api.Socket_api.bind ls (Addr.make ip_b 80));
  Types.get_exn "listen" (b.World.api.Socket_api.listen ls ~backlog:8);
  b.World.api.Socket_api.accept ls ~k:(fun r -> ignore (Types.get_exn "accept" r));
  let sent = ref 0 and still_alive = ref false in
  let fd = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
      Types.get_exn "connect" r;
      let rec pump () =
        a.World.api.Socket_api.send fd (Types.Zeros 65536) ~k:(fun r ->
            match r with
            | Ok n ->
                sent := !sent + n;
                pump ()
            | Error Types.Eagain ->
                (* buffer full; try again much later *)
                ignore (E.schedule w.World.engine ~delay:0.5 pump)
            | Error e -> Alcotest.failf "send: %s" (Types.err_to_string e))
      in
      pump ();
      (* After several persist periods the connection must still work. *)
      ignore
        (E.schedule w.World.engine ~delay:4.0 (fun () ->
             a.World.api.Socket_api.send fd (Types.Zeros 1) ~k:(fun r ->
                 match r with
                 | Ok _ | Error Types.Eagain -> still_alive := true
                 | Error e -> Alcotest.failf "conn died: %s" (Types.err_to_string e)))));
  World.run w ~until:5.0;
  (* Exactly one receive window plus the sender's buffered backlog was
     accepted; nothing more can leave. *)
  if !sent < 256 * 1024 then Alcotest.failf "window never filled: %d" !sent;
  Alcotest.(check bool) "alive after persist probing" true !still_alive

let events_snapshot () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a in
  let b = World.add_endpoint w ~name:"b" ~ip:ip_b in
  let ls = Types.get_exn "socket" (b.World.api.Socket_api.socket ()) in
  Types.get_exn "bind" (b.World.api.Socket_api.bind ls (Addr.make ip_b 80));
  Types.get_exn "listen" (b.World.api.Socket_api.listen ls ~backlog:8);
  let server_fd = ref None in
  b.World.api.Socket_api.accept ls ~k:(fun r ->
      let fd, _ = Types.get_exn "accept" r in
      server_fd := Some fd);
  let fd = Types.get_exn "socket" (a.World.api.Socket_api.socket ()) in
  let ep = a.World.api.Socket_api.epoll_create () in
  a.World.api.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
      Types.get_exn "connect" r;
      a.World.api.Socket_api.epoll_add ep fd
        ~mask:{ Types.readable = true; writable = true; hup = true });
  let got = ref [] in
  ignore
    (E.schedule w.World.engine ~delay:0.1 (fun () ->
         a.World.api.Socket_api.epoll_wait ep ~timeout:1.0 ~k:(fun evs -> got := evs)));
  World.run w ~until:2.0;
  match !got with
  | [ (efd, ev) ] ->
      Alcotest.(check int) "right fd" fd efd;
      Alcotest.(check bool) "writable after connect" true ev.Types.writable;
      Alcotest.(check bool) "not readable yet" false ev.Types.readable
  | other -> Alcotest.failf "expected one event, got %d" (List.length other)

let tests =
  [
    Alcotest.test_case "bind conflicts" `Quick bind_conflicts;
    Alcotest.test_case "listener close fails waiters" `Quick listener_close_fails_waiters;
    Alcotest.test_case "RST for unknown flow" `Quick rst_for_unknown_flow;
    Alcotest.test_case "ephemeral ports recycle" `Quick ephemeral_ports_recycle;
    Alcotest.test_case "zero-window persist" `Quick zero_window_persist;
    Alcotest.test_case "epoll events snapshot" `Quick events_snapshot;
  ]
