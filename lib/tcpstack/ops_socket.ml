type listener_state = {
  mutable handle : Stack_ops.listener option;
  pending : (Stack_ops.conn * Addr.t) Queue.t;
  waiters : ((Socket_api.sock * Addr.t, Types.err) result -> unit) Queue.t;
}

type entry =
  | Fresh of { mutable bound : Addr.t option }
  | Lst of listener_state
  | Cn of Stack_ops.conn

type state = {
  ops : Stack_ops.t;
  fds : (Socket_api.sock, entry) Hashtbl.t;
  epolls : Epoll_core.t;
  mutable next_fd : int;
}

let alloc st entry =
  let fd = st.next_fd in
  st.next_fd <- st.next_fd + 1;
  Hashtbl.replace st.fds fd entry;
  fd

let register_conn st conn =
  let fd = alloc st (Cn conn) in
  st.ops.Stack_ops.set_conn_handler conn (fun _ev -> Epoll_core.notify st.epolls fd);
  fd

let events_of ops fds fd =
  match Hashtbl.find_opt fds fd with
  | None | Some (Fresh _) -> Types.no_events
  | Some (Lst l) ->
      Types.events ~readable:(not (Queue.is_empty l.pending)) ~writable:false ~hup:false
  | Some (Cn c) -> ops.Stack_ops.conn_events c

let core_of ops fds fd =
  match Hashtbl.find_opt fds fd with
  | Some (Cn c) -> ops.Stack_ops.conn_core c
  | Some (Lst _) | Some (Fresh _) | None -> ops.Stack_ops.default_core

let make ops =
  let fds = Hashtbl.create 64 in
  let epolls =
    Epoll_core.create ~engine:ops.Stack_ops.engine ~events_of:(events_of ops fds)
      ~core_of:(core_of ops fds) ~wake_cycles:ops.Stack_ops.wake_cycles ()
  in
  let st = { ops; fds; epolls; next_fd = 3 } in
  let find fd = Hashtbl.find_opt st.fds fd in
  let socket () = Ok (alloc st (Fresh { bound = None })) in
  let bind fd addr =
    match find fd with
    | Some (Fresh f) ->
        f.bound <- Some addr;
        Ok ()
    | Some (Lst _ | Cn _) | None -> Error Types.Einval
  in
  let listen fd ~backlog =
    match find fd with
    | Some (Fresh { bound = Some addr }) -> (
        let l = { handle = None; pending = Queue.create (); waiters = Queue.create () } in
        let on_accept conn ~peer =
          if Queue.is_empty l.waiters then begin
            Queue.add (conn, peer) l.pending;
            Epoll_core.notify epolls fd
          end
          else begin
            let k = Queue.pop l.waiters in
            let cfd = register_conn st conn in
            k (Ok (cfd, peer))
          end
        in
        match ops.Stack_ops.new_listener ~addr ~backlog ~on_accept with
        | Error e -> Error e
        | Ok handle ->
            l.handle <- Some handle;
            Hashtbl.replace st.fds fd (Lst l);
            Ok ())
    | Some (Fresh { bound = None }) -> Error Types.Einval
    | Some (Lst _ | Cn _) | None -> Error Types.Einval
  in
  let accept fd ~k =
    match find fd with
    | Some (Lst l) ->
        if Queue.is_empty l.pending then Queue.add k l.waiters
        else begin
          let conn, peer = Queue.pop l.pending in
          let cfd = register_conn st conn in
          k (Ok (cfd, peer))
        end
    | Some (Fresh _ | Cn _) | None -> k (Error Types.Einval)
  in
  let connect fd addr ~k =
    match find fd with
    | Some (Fresh _) ->
        ops.Stack_ops.connect ~dst:addr ~k:(fun r ->
            match r with
            | Error e -> k (Error e)
            | Ok conn ->
                Hashtbl.replace st.fds fd (Cn conn);
                ops.Stack_ops.set_conn_handler conn (fun _ev -> Epoll_core.notify epolls fd);
                k (Ok ()))
    | Some (Lst _ | Cn _) | None -> k (Error Types.Einval)
  in
  let send fd payload ~k =
    match find fd with
    | Some (Cn c) -> ops.Stack_ops.send c payload ~k
    | Some (Fresh _ | Lst _) | None -> k (Error Types.Enotconn)
  in
  let recv fd ~max ~mode ~k =
    match find fd with
    | Some (Cn c) -> ops.Stack_ops.recv c ~max ~mode ~k
    | Some (Fresh _ | Lst _) | None -> k (Error Types.Enotconn)
  in
  let close fd =
    (match find fd with
    | Some (Cn c) -> ops.Stack_ops.close_conn c
    | Some (Lst l) -> (
        Queue.iter (fun k -> k (Error Types.Eclosed)) l.waiters;
        Queue.iter (fun (conn, _) -> ops.Stack_ops.abort_conn conn) l.pending;
        match l.handle with
        | Some h -> ops.Stack_ops.close_listener h
        | None -> ())
    | Some (Fresh _) | None -> ());
    Hashtbl.remove st.fds fd;
    Epoll_core.forget epolls fd
  in
  let local_addr fd =
    match find fd with
    | Some (Cn c) -> ops.Stack_ops.conn_local c
    | Some (Fresh { bound }) -> bound
    | Some (Lst _) | None -> None
  in
  let peer_addr fd =
    match find fd with
    | Some (Cn c) -> ops.Stack_ops.conn_peer c
    | Some (Fresh _ | Lst _) | None -> None
  in
  {
    Socket_api.socket;
    bind;
    listen;
    accept;
    connect;
    send;
    recv;
    close;
    epoll_create = Epoll_core.epoll_create epolls;
    epoll_add = Epoll_core.epoll_add epolls;
    epoll_del = Epoll_core.epoll_del epolls;
    epoll_wait = Epoll_core.epoll_wait epolls;
    local_addr;
    peer_addr;
  }
