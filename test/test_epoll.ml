(* One epoll contract, checked over every socket layer: Direct_socket (the
   Baseline in-VM stack), Ops_socket over a kernel-stack Stack_ops backend,
   and NetKernel's GuestLib. Applications must not be able to tell which
   layer serves them, so multi-epoll membership, epoll_del, close-time
   removal and ready-set order are held to the same expectations. *)

open Tcpstack

(* [api] is the layer under test; [peer] is a baseline API listening on
   [peer_addr] that accepts and sends. [run t] advances virtual time to [t]. *)
type fixture = {
  api : Socket_api.t;
  peer : Socket_api.t;
  peer_addr : Addr.t;
  run : float -> unit;
}

let readable = { Types.readable = true; writable = false; hup = false }

let fds evs = List.map fst evs

let contract fx =
  let api = fx.api and peer = fx.peer in
  let ls = Types.get_exn "peer socket" (peer.Socket_api.socket ()) in
  Types.get_exn "peer bind" (peer.Socket_api.bind ls fx.peer_addr);
  Types.get_exn "peer listen" (peer.Socket_api.listen ls ~backlog:8);
  let accepted = Queue.create () in
  let rec accept_loop () =
    peer.Socket_api.accept ls ~k:(fun r ->
        Queue.add (fst (Types.get_exn "peer accept" r)) accepted;
        accept_loop ())
  in
  accept_loop ();
  (* Connect one at a time so the peer's accept order maps to ours. *)
  let connect fd ~until =
    let connected = ref false in
    api.Socket_api.connect fd fx.peer_addr ~k:(fun r ->
        Types.get_exn "connect" r;
        connected := true);
    fx.run until;
    Alcotest.(check bool) "connected" true !connected;
    match Queue.take_opt accepted with
    | Some pfd -> pfd
    | None -> Alcotest.fail "peer never accepted"
  in
  let fd1 = Types.get_exn "socket" (api.Socket_api.socket ()) in
  let fd2 = Types.get_exn "socket" (api.Socket_api.socket ()) in
  let p1 = connect fd1 ~until:0.5 in
  let p2 = connect fd2 ~until:1.0 in
  let ep1 = api.Socket_api.epoll_create () in
  let ep2 = api.Socket_api.epoll_create () in
  let wait ep ~timeout =
    let got = ref None in
    api.Socket_api.epoll_wait ep ~timeout ~k:(fun evs -> got := Some (fds evs));
    got
  in
  let delivered what got expect =
    Alcotest.(check (option (list int))) what (Some expect) !got
  in
  (* A connected fd in two epolls wakes both parked waiters. *)
  api.Socket_api.epoll_add ep1 fd1 ~mask:readable;
  api.Socket_api.epoll_add ep2 fd1 ~mask:readable;
  let w1 = wait ep1 ~timeout:(-1.0) in
  let w2 = wait ep2 ~timeout:(-1.0) in
  fx.run 1.2;
  Alcotest.(check (option (list int))) "ep1 parked" None !w1;
  Alcotest.(check (option (list int))) "ep2 parked" None !w2;
  peer.Socket_api.send p1 (Types.Data "hello") ~k:(fun r -> ignore (Types.get_exn "peer send" r));
  fx.run 1.5;
  delivered "ep1 woken" w1 [ fd1 ];
  delivered "ep2 woken" w2 [ fd1 ];
  (* epoll_del on one epoll leaves the other delivering (level-triggered:
     the data is still unread). *)
  api.Socket_api.epoll_del ep1 fd1;
  let w1 = wait ep1 ~timeout:0.1 in
  let w2 = wait ep2 ~timeout:0.1 in
  fx.run 2.0;
  delivered "ep1 after epoll_del" w1 [];
  delivered "ep2 still delivers" w2 [ fd1 ];
  (* The ready set comes back in ascending fd order, whatever order the fds
     were added or became ready in. *)
  peer.Socket_api.send p2 (Types.Data "world") ~k:(fun r -> ignore (Types.get_exn "peer send" r));
  fx.run 2.3;
  api.Socket_api.epoll_add ep1 fd2 ~mask:readable;
  api.Socket_api.epoll_add ep1 fd1 ~mask:readable;
  let w1 = wait ep1 ~timeout:0.1 in
  fx.run 2.5;
  delivered "ascending fd order" w1 (List.sort Int.compare [ fd1; fd2 ]);
  (* After close, neither epoll reports the fd. *)
  api.Socket_api.close fd1;
  api.Socket_api.close fd2;
  let w1 = wait ep1 ~timeout:0.1 in
  let w2 = wait ep2 ~timeout:0.1 in
  fx.run 3.0;
  delivered "ep1 forgets closed fds" w1 [];
  delivered "ep2 forgets closed fds" w2 []

let world_fixture ~wrap () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:1 in
  let b = World.add_endpoint w ~name:"b" ~ip:2 in
  { api = wrap a; peer = b.World.api; peer_addr = Addr.make 2 80;
    run = (fun until -> World.run w ~until) }

let direct_socket () = contract (world_fixture ~wrap:(fun a -> a.World.api) ())

let ops_socket () =
  contract
    (world_fixture ~wrap:(fun a -> Ops_socket.make (Tcp_ops.of_stack a.World.stack)) ())

let guestlib () =
  let open Nkcore in
  let tb = Testbed.create () in
  let server_host = Testbed.add_host tb ~name:"hostA" in
  let client_host = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel server_host ~name:"nsm0" ~vcpus:1 () in
  let vm = Vm.create_nk server_host ~name:"vm0" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let peer = Vm.create_baseline client_host ~name:"peer" ~vcpus:1 ~ips:[ 20 ] () in
  contract
    { api = Vm.api vm; peer = Vm.api peer; peer_addr = Addr.make 20 80;
      run = (fun until -> Testbed.run tb ~until) }

let tests =
  [
    Alcotest.test_case "epoll contract: Direct_socket" `Quick direct_socket;
    Alcotest.test_case "epoll contract: Ops_socket" `Quick ops_socket;
    Alcotest.test_case "epoll contract: GuestLib" `Quick guestlib;
  ]
