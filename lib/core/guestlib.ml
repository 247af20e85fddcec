module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Types = Tcpstack.Types
module Socket_api = Tcpstack.Socket_api
module Epoll_core = Tcpstack.Epoll_core

type rx_chunk = { extent : Hugepages.extent; mutable off : int; synthetic : bool }

type gstate = Gfresh | Gconnecting | Gconnected | Glistening | Gclosed

type gsock = {
  gid : int;
  mutable qset : int;
  mutable state : gstate;
  mutable local : Addr.t option;
  mutable peer : Addr.t option;
  mutable backlog : int; (* remembered for listener re-homing *)
  mutable err : Types.err option;
  recvq : rx_chunk Queue.t;
  mutable recv_avail : int;
  mutable eof : bool;
  mutable eof_delivered : bool;
  mutable sendbuf_used : int;
  acceptq : (int * Addr.t) Queue.t;
  accept_waiters : ((Socket_api.sock * Addr.t, Types.err) result -> unit) Queue.t;
  mutable on_connect : ((unit, Types.err) result -> unit) option;
  mutable close_pending : bool;
}

type qset_state = {
  mutable scheduled : bool;
  mutable last_active : float;
  (* Reusable burst buffer for [process_qset]. Per queue set because the
     apply loop runs deferred (behind [Cpu.exec]) while another queue set
     may already be draining. *)
  scratch : bytes array;
}

type stats = {
  nqes_tx : int;
  nqes_rx : int;
  bytes_sent : int;
  bytes_received : int;
  send_eagain : int;
}

(* Live registry-backed counters; [stats] snapshots them. *)
type counters = {
  c_nqes_tx : Nkmon.Registry.counter;
  c_nqes_rx : Nkmon.Registry.counter;
  c_bytes_sent : Nkmon.Registry.counter;
  c_bytes_received : Nkmon.Registry.counter;
  c_send_eagain : Nkmon.Registry.counter;
}

type t = {
  engine : Engine.t;
  vm_id : int;
  cores : Cpu.Set.t;
  device : Nk_device.t;
  costs : Nk_costs.t;
  profile : Sim.Cost_profile.t;
  socks : (int, gsock) Hashtbl.t;
  epolls : (Socket_api.epoll, Socket_api.sock Epoll_core.t) Hashtbl.t;
  memberships : (Socket_api.sock, Socket_api.epoll list ref) Hashtbl.t;
  qstates : qset_state array;
  mon : Nkmon.t;
  spans : Nkspan.t;
  instance : string; (* "vm<id>", the span/metric component instance *)
  ctr : counters;
  mutable next_gid : int;
  mutable next_ep : int;
}

let stats t =
  let module R = Nkmon.Registry in
  {
    nqes_tx = R.counter_value t.ctr.c_nqes_tx;
    nqes_rx = R.counter_value t.ctr.c_nqes_rx;
    bytes_sent = R.counter_value t.ctr.c_bytes_sent;
    bytes_received = R.counter_value t.ctr.c_bytes_received;
    send_eagain = R.counter_value t.ctr.c_send_eagain;
  }

let nk_debug = Sys.getenv_opt "NKDEBUG" <> None

let dbg fmt = if nk_debug then Printf.eprintf fmt else Printf.ifprintf stderr fmt

let hash_qset t sock = sock * 2654435761 land max_int mod Cpu.Set.n t.cores

let core_for t gs = Cpu.Set.core t.cores gs.qset

let find t gid = Hashtbl.find_opt t.socks gid

(* ---- epoll plumbing ----------------------------------------------------- *)

let gsock_events t gid =
  match find t gid with
  | None -> { Types.readable = false; writable = false; hup = true }
  | Some gs -> (
      match gs.state with
      | Gfresh | Gconnecting -> Types.no_events
      | Gclosed -> { Types.readable = false; writable = false; hup = true }
      | Glistening ->
          let hup = gs.err <> None in
          {
            Types.readable = (not (Queue.is_empty gs.acceptq)) || hup;
            writable = false;
            hup;
          }
      | Gconnected ->
          let hup = gs.err <> None in
          {
            Types.readable = gs.recv_avail > 0 || (gs.eof && not gs.eof_delivered) || hup;
            writable = gs.sendbuf_used < t.costs.Nk_costs.guest_sendbuf;
            hup;
          })

let notify_epolls t gid =
  match Hashtbl.find_opt t.memberships gid with
  | None -> ()
  | Some eps ->
      List.iter
        (fun epid ->
          match Hashtbl.find_opt t.epolls epid with
          | None -> ()
          | Some ep -> Epoll_core.notify ep gid)
        !eps

(* ---- NQE posting -------------------------------------------------------- *)

let post t gs queue (nqe : Nqe.t) =
  Nkmon.Registry.incr t.ctr.c_nqes_tx;
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Nqe_enqueue
         {
           device = Nk_device.id t.device;
           qset = gs.qset;
           queue = (match queue with `Send -> Nkmon.Trace.Send | _ -> Nkmon.Trace.Job);
           op = Nqe.op_to_string nqe.Nqe.op;
           vm_id = t.vm_id;
           sock = gs.gid;
         });
  Nk_device.post t.device ~qset:gs.qset queue (Nqe.encode nqe)

let post_op t gs op ?op_data ?data_ptr ?size ?synthetic ?span () =
  post t gs
    (match op with Nqe.Send -> `Send | _ -> `Job)
    (Nqe.make ~op ~vm_id:t.vm_id ~qset:gs.qset ~sock:gs.gid ?op_data ?data_ptr ?size
       ?synthetic ?span ())

(* ---- inbound NQE processing ---------------------------------------------- *)

let free_send_extent t (nqe : Nqe.t) =
  Hugepages.free (Nk_device.hugepages t.device)
    { Hugepages.offset = nqe.Nqe.data_ptr; len = nqe.Nqe.size }

let apply t (nqe : Nqe.t) =
  Nkmon.Registry.incr t.ctr.c_nqes_rx;
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Nqe_deliver
         {
           component = "guestlib";
           instance = Printf.sprintf "vm%d" t.vm_id;
           qset = nqe.Nqe.qset;
           op = Nqe.op_to_string nqe.Nqe.op;
           vm_id = t.vm_id;
           sock = nqe.Nqe.sock;
         });
  let err = Nqe.err_of_code nqe.Nqe.op_data in
  match nqe.Nqe.op with
  | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen -> (
      match find t nqe.Nqe.sock with
      | None -> ()
      | Some gs ->
          (match err with Some e -> gs.err <- Some e | None -> ());
          notify_epolls t gs.gid)
  | Nqe.Comp_connect -> (
      match find t nqe.Nqe.sock with
      | None -> ()
      | Some gs ->
          (match err with
          | None -> gs.state <- Gconnected
          | Some e ->
              gs.err <- Some e;
              gs.state <- Gclosed);
          (match gs.on_connect with
          | None -> ()
          | Some k ->
              gs.on_connect <- None;
              k (match err with None -> Ok () | Some e -> Error e));
          notify_epolls t gs.gid)
  | Nqe.Comp_send -> (
      free_send_extent t nqe;
      Nkspan.end_stage t.spans ~id:nqe.Nqe.span "completion";
      Nkspan.finish t.spans ~id:nqe.Nqe.span;
      match find t nqe.Nqe.sock with
      | None -> ()
      | Some gs ->
          gs.sendbuf_used <- Int.max 0 (gs.sendbuf_used - nqe.Nqe.size);
          (match err with Some e -> gs.err <- Some e | None -> ());
          if gs.close_pending && gs.sendbuf_used = 0 then begin
            gs.close_pending <- false;
            post_op t gs Nqe.Close ()
          end;
          notify_epolls t gs.gid)
  | Nqe.Comp_close -> Hashtbl.remove t.socks nqe.Nqe.sock
  | Nqe.Ev_accept -> (
      match find t nqe.Nqe.sock with
      | None -> ()
      | Some lsock when lsock.state = Glistening ->
          let gid = nqe.Nqe.size in
          let peer = Nqe.unpack_addr nqe.Nqe.op_data in
          let gs =
            {
              gid;
              qset = (if nqe.Nqe.qset < Cpu.Set.n t.cores then nqe.Nqe.qset else hash_qset t gid);
              state = Gconnected;
              local = lsock.local;
              peer = Some peer;
              backlog = 0;
              err = None;
              recvq = Queue.create ();
              recv_avail = 0;
              eof = false;
              eof_delivered = false;
              sendbuf_used = 0;
              acceptq = Queue.create ();
              accept_waiters = Queue.create ();
              on_connect = None;
              close_pending = false;
            }
          in
          Hashtbl.replace t.socks gid gs;
          if Queue.is_empty lsock.accept_waiters then begin
            Queue.add (gid, peer) lsock.acceptq;
            notify_epolls t lsock.gid
          end
          else begin
            let k = Queue.pop lsock.accept_waiters in
            Cpu.exec (core_for t gs) ~cycles:t.costs.Nk_costs.nk_syscall (fun () ->
                k (Ok (gid, peer)))
          end
      | Some _ -> ())
  | Nqe.Ev_data -> (
      match find t nqe.Nqe.sock with
      | None ->
          (* Socket already closed locally: return the extent. *)
          free_send_extent t nqe
      | Some gs ->
          Queue.add
            {
              extent = { Hugepages.offset = nqe.Nqe.data_ptr; len = nqe.Nqe.size };
              off = 0;
              synthetic = nqe.Nqe.synthetic;
            }
            gs.recvq;
          gs.recv_avail <- gs.recv_avail + nqe.Nqe.size;
          dbg "[%.4f] glib: gid=%x ev_data %d avail=%d members=%b\n"
            (Engine.now t.engine) gs.gid nqe.Nqe.size gs.recv_avail
            (Hashtbl.mem t.memberships gs.gid);
          Nkmon.Registry.add t.ctr.c_bytes_received nqe.Nqe.size;
          notify_epolls t gs.gid)
  | Nqe.Ev_eof -> (
      match find t nqe.Nqe.sock with
      | None -> ()
      | Some gs ->
          gs.eof <- true;
          notify_epolls t gs.gid)
  | Nqe.Ev_err -> (
      match find t nqe.Nqe.sock with
      | None -> ()
      | Some gs ->
          (match err with Some e -> gs.err <- Some e | None -> gs.err <- Some Types.Econnreset);
          let e = Option.value gs.err ~default:Types.Econnreset in
          (match gs.on_connect with
          | None -> ()
          | Some k ->
              gs.on_connect <- None;
              k (Error e));
          (* A dying listener must fail its parked accepts, not strand them. *)
          Queue.iter (fun k -> k (Error e)) gs.accept_waiters;
          Queue.clear gs.accept_waiters;
          notify_epolls t gs.gid)
  | Nqe.Socket | Nqe.Bind | Nqe.Listen | Nqe.Connect | Nqe.Send | Nqe.Recv_done | Nqe.Close
    ->
      (* VM-bound queues never carry VM-to-NSM ops. *)
      ()

let rec process_qset t qi =
  let s = Nk_device.qset t.device qi in
  let qs = t.qstates.(qi) in
  (* One wakeup drains a budgeted burst from both inbound rings into the
     per-qset scratch buffer: completions first, then receive events, each
     in ring order — the same order the one-at-a-time poll produced. *)
  let n = Queue_set.drain_into s ~toward:`Vm qs.scratch ~budget:64 ~shared:false in
  if n = 0 then qs.scheduled <- false
  else begin
    let now = Engine.now t.engine in
    let wake_extra =
      (* The device slept after the 20 us polling window; waking it costs an
         interrupt (interrupt-driven polling, §4.6). *)
      if now -. qs.last_active > t.costs.Nk_costs.guest_idle_window then
        t.costs.Nk_costs.guest_interrupt
      else 0.0
    in
    let cycles =
      t.costs.Nk_costs.guest_poll +. wake_extra
      +. (float_of_int n *. t.costs.Nk_costs.nqe_decode)
    in
    (* Traced completions leave the ring here: everything from now until
       [apply] runs (poll + decode + core queueing) is the completion
       stage. Only Comp_send NQEs carry a span id, the rest peek as 0. *)
    if Nkspan.enabled t.spans then
      for i = 0 to n - 1 do
        let span = Nqe.span_of_raw qs.scratch.(i) in
        Nkspan.end_stage t.spans ~id:span "ring";
        Nkspan.begin_stage t.spans ~id:span ~component:t.instance "completion"
      done;
    Nkspan.frame t.spans ~component:t.instance ~stage:"poll" (fun () ->
        Cpu.exec (Cpu.Set.core t.cores qi) ~cycles (fun () ->
            for i = 0 to n - 1 do
              (* Endpoint apply needs the whole record. nkscope: decode-ok *)
              match Nqe.decode qs.scratch.(i) with
              | Error _ -> ()
              | Ok nqe -> apply t nqe
            done;
            qs.last_active <- Engine.now t.engine;
            process_qset t qi))
  end

let on_kick t qi =
  let qs = t.qstates.(qi) in
  if not qs.scheduled then begin
    qs.scheduled <- true;
    process_qset t qi
  end

(* ---- API ------------------------------------------------------------------ *)

let alloc_gsock t =
  let gid = t.next_gid in
  t.next_gid <- t.next_gid + 1;
  {
    gid;
    qset = hash_qset t gid;
    state = Gfresh;
    local = None;
    peer = None;
    backlog = 0;
    err = None;
    recvq = Queue.create ();
    recv_avail = 0;
    eof = false;
    eof_delivered = false;
    sendbuf_used = 0;
    acceptq = Queue.create ();
    accept_waiters = Queue.create ();
    on_connect = None;
    close_pending = false;
  }

let control_cycles t = t.costs.Nk_costs.nk_syscall +. t.costs.Nk_costs.nqe_encode

let api t =
  let socket () =
    let gs = alloc_gsock t in
    Hashtbl.replace t.socks gs.gid gs;
    Cpu.charge (core_for t gs) ~cycles:(control_cycles t);
    post_op t gs Nqe.Socket ();
    Ok gs.gid
  in
  let bind gid addr =
    match find t gid with
    | None -> Error Types.Einval
    | Some gs ->
        gs.local <- Some addr;
        Cpu.charge (core_for t gs) ~cycles:(control_cycles t);
        post_op t gs Nqe.Bind ~op_data:(Nqe.pack_addr addr) ();
        Ok ()
  in
  let listen gid ~backlog =
    match find t gid with
    | None -> Error Types.Einval
    | Some gs -> (
        match gs.local with
        | None -> Error Types.Einval
        | Some _ ->
            gs.state <- Glistening;
            gs.backlog <- backlog;
            Cpu.charge (core_for t gs) ~cycles:(control_cycles t);
            post_op t gs Nqe.Listen ~op_data:(Int64.of_int backlog) ();
            Ok ())
  in
  let accept gid ~k =
    match find t gid with
    | None -> k (Error Types.Einval)
    | Some gs when gs.state = Glistening && gs.err <> None ->
        k (Error (Option.value gs.err ~default:Types.Econnreset))
    | Some gs when gs.state = Glistening ->
        if Queue.is_empty gs.acceptq then Queue.add k gs.accept_waiters
        else begin
          let cgid, peer = Queue.pop gs.acceptq in
          Cpu.exec (core_for t gs) ~cycles:(control_cycles t) (fun () -> k (Ok (cgid, peer)))
        end
    | Some _ -> k (Error Types.Einval)
  in
  let connect gid dst ~k =
    match find t gid with
    | None -> k (Error Types.Einval)
    | Some gs when gs.state = Gfresh ->
        gs.state <- Gconnecting;
        gs.peer <- Some dst;
        gs.on_connect <- Some k;
        Cpu.charge (core_for t gs) ~cycles:(control_cycles t);
        post_op t gs Nqe.Connect ~op_data:(Nqe.pack_addr dst) ()
    | Some _ -> k (Error Types.Einval)
  in
  let send gid payload ~k =
    match find t gid with
    | None -> k (Error Types.Eclosed)
    | Some gs -> (
        match (gs.state, gs.err) with
        | _, Some e -> k (Error e)
        | Gconnected, None -> (
            let want = Types.payload_len payload in
            let room = t.costs.Nk_costs.guest_sendbuf - gs.sendbuf_used in
            let n = Int.min want room in
            if n <= 0 then begin
              Nkmon.Registry.incr t.ctr.c_send_eagain;
              Cpu.charge (core_for t gs) ~cycles:t.costs.Nk_costs.nk_syscall;
              k (Error Types.Eagain)
            end
            else
              match Hugepages.alloc (Nk_device.hugepages t.device) n with
              | None ->
                  Nkmon.Registry.incr t.ctr.c_send_eagain;
                  Cpu.charge (core_for t gs) ~cycles:t.costs.Nk_costs.nk_syscall;
                  k (Error Types.Eagain)
              | Some extent ->
                  let synthetic =
                    match payload with Types.Zeros _ -> true | Types.Data _ -> false
                  in
                  let cycles =
                    t.costs.Nk_costs.nk_syscall +. t.costs.Nk_costs.nqe_encode
                    +. t.costs.Nk_costs.hugepage_alloc
                    +. (float_of_int n *. t.profile.Sim.Cost_profile.per_byte_user_copy)
                  in
                  gs.sendbuf_used <- gs.sendbuf_used + n;
                  (* Span birth: the request is stamped here and the span id
                     rides the NQE through the whole datapath. *)
                  let span = Nkspan.sample t.spans ~vm:t.instance in
                  Nkspan.begin_stage t.spans ~id:span ~component:t.instance "guestlib";
                  Nkspan.frame t.spans ~component:t.instance ~stage:"send" (fun () ->
                      Cpu.exec (core_for t gs) ~cycles (fun () ->
                          (match payload with
                          | Types.Data s ->
                              Hugepages.write_payload (Nk_device.hugepages t.device) extent
                                (Types.Data
                                   (if String.length s = n then s else String.sub s 0 n))
                          | Types.Zeros _ -> ());
                          Nkmon.Registry.add t.ctr.c_bytes_sent n;
                          Nkspan.end_stage t.spans ~id:span "guestlib";
                          post_op t gs Nqe.Send ~data_ptr:extent.Hugepages.offset ~size:n
                            ~synthetic ~span ();
                          k (Ok n))))
        | (Gfresh | Gconnecting | Glistening | Gclosed), None -> k (Error Types.Enotconn))
  in
  let recv gid ~max ~mode ~k =
    match find t gid with
    | None -> k (Error Types.Eclosed)
    | Some gs ->
        if gs.recv_avail > 0 && max > 0 then begin
          (* Charge an estimate now; the chunk state is re-read at execution
             time because concurrent recv calls may race on this socket. *)
          let est = Int.min max gs.recv_avail in
          let cycles =
            t.costs.Nk_costs.nk_syscall +. t.costs.Nk_costs.nqe_encode
            +. (float_of_int est *. t.profile.Sim.Cost_profile.per_byte_user_copy)
          in
          Cpu.exec (core_for t gs) ~cycles (fun () ->
              match Queue.peek_opt gs.recvq with
              | None ->
                  if gs.eof && not gs.eof_delivered then begin
                    gs.eof_delivered <- true;
                    k (Ok (match mode with
                          | `Discard -> Types.Zeros 0
                          | `Copy | `Auto -> Types.Data ""))
                  end
                  else k (Error Types.Eagain)
              | Some chunk ->
                  let n = Int.min max (chunk.extent.Hugepages.len - chunk.off) in
                  let finished = chunk.off + n = chunk.extent.Hugepages.len in
                  let payload =
                    match mode with
                    | `Discard -> Types.Zeros n
                    | `Copy | `Auto ->
                        Hugepages.read_payload (Nk_device.hugepages t.device) chunk.extent
                          ~pos:chunk.off ~len:n ~synthetic:chunk.synthetic
                  in
                  chunk.off <- chunk.off + n;
                  gs.recv_avail <- gs.recv_avail - n;
                  if finished then begin
                    Hugepages.free (Nk_device.hugepages t.device) chunk.extent;
                    ignore (Queue.pop gs.recvq)
                  end;
                  (* Return the receive credit to the NSM. *)
                  post_op t gs Nqe.Recv_done ~size:n ();
                  k (Ok payload))
        end
        else if gs.eof && not gs.eof_delivered then begin
          gs.eof_delivered <- true;
          k (Ok (match mode with `Discard -> Types.Zeros 0 | `Copy | `Auto -> Types.Data ""))
        end
        else begin
          Cpu.charge (core_for t gs) ~cycles:t.costs.Nk_costs.nk_syscall;
          match gs.err with Some e -> k (Error e) | None -> k (Error Types.Eagain)
        end
  in
  let close gid =
    match find t gid with
    | None -> ()
    | Some gs ->
        Cpu.charge (core_for t gs) ~cycles:(control_cycles t);
        (* Free any unread receive extents; the NSM stops delivering after
           the close NQE. *)
        Queue.iter
          (fun chunk -> Hugepages.free (Nk_device.hugepages t.device) chunk.extent)
          gs.recvq;
        Queue.clear gs.recvq;
        gs.recv_avail <- 0;
        Queue.iter (fun k -> k (Error Types.Eclosed)) gs.accept_waiters;
        Queue.clear gs.accept_waiters;
        gs.state <- Gclosed;
        (* Job and send queues have no mutual ordering; defer the close NQE
           until every in-flight send has been acknowledged so it cannot
           overtake data. *)
        if gs.sendbuf_used > 0 then gs.close_pending <- true
        else post_op t gs Nqe.Close ();
        (match Hashtbl.find_opt t.memberships gid with
        | None -> ()
        | Some eps ->
            List.iter
              (fun epid ->
                match Hashtbl.find_opt t.epolls epid with
                | None -> ()
                | Some ep -> Epoll_core.del ep gid)
              !eps;
            Hashtbl.remove t.memberships gid)
  in
  let epoll_create () =
    let epid = t.next_ep in
    t.next_ep <- t.next_ep + 1;
    let core_of gid =
      match find t gid with
      | Some gs -> core_for t gs
      | None -> Cpu.Set.core t.cores 0
    in
    Hashtbl.replace t.epolls epid
      (Epoll_core.create ~engine:t.engine ~cmp:Int.compare ~events_of:(gsock_events t)
         ~core_of ~wake_cycles:t.costs.Nk_costs.guest_epoll_wake ());
    epid
  in
  let epoll_add epid gid ~mask =
    match Hashtbl.find_opt t.epolls epid with
    | None -> ()
    | Some ep ->
        Epoll_core.add ep gid ~mask;
        let eps =
          match Hashtbl.find_opt t.memberships gid with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace t.memberships gid l;
              l
        in
        if not (List.mem epid !eps) then eps := epid :: !eps
  in
  let epoll_del epid gid =
    match Hashtbl.find_opt t.epolls epid with
    | None -> ()
    | Some ep ->
        Epoll_core.del ep gid;
        (match Hashtbl.find_opt t.memberships gid with
        | None -> ()
        | Some eps -> eps := List.filter (fun e -> e <> epid) !eps)
  in
  let epoll_wait epid ~timeout ~k =
    match Hashtbl.find_opt t.epolls epid with
    | None -> k []
    | Some ep -> Epoll_core.wait ep ~timeout ~k
  in
  let local_addr gid = Option.bind (find t gid) (fun gs -> gs.local) in
  let peer_addr gid = Option.bind (find t gid) (fun gs -> gs.peer) in
  {
    Socket_api.socket;
    bind;
    listen;
    accept;
    connect;
    send;
    recv;
    close;
    epoll_create;
    epoll_add;
    epoll_del;
    epoll_wait;
    local_addr;
    peer_addr;
  }

(* ---- listener re-homing (control plane) --------------------------------- *)

let listening_socks t =
  Nkutil.Det_tbl.bindings ~cmp:Int.compare t.socks
  |> List.filter_map (fun (gid, gs) -> if gs.state = Glistening then Some gid else None)

let remigrate_listeners t =
  List.iter
    (fun gid ->
      match find t gid with
      | Some gs when gs.state = Glistening -> (
          match gs.local with
          | None -> ()
          | Some addr ->
              (* The listener is being re-homed: its route was forgotten, so
                 replaying the socket/bind/listen NQEs re-runs NSM assignment
                 and re-registers the endpoint on the new NSM. A crash error
                 is wiped — the reborn listener starts clean. *)
              gs.err <- None;
              Cpu.charge (core_for t gs) ~cycles:(3.0 *. control_cycles t);
              post_op t gs Nqe.Socket ();
              post_op t gs Nqe.Bind ~op_data:(Nqe.pack_addr addr) ();
              post_op t gs Nqe.Listen ~op_data:(Int64.of_int gs.backlog) ();
              notify_epolls t gs.gid)
      | _ -> ())
    (listening_socks t)

let create ~engine ~vm_id ~cores ~device ~costs ~profile ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) () =
  let instance = Printf.sprintf "vm%d" vm_id in
  let c name = Nkmon.counter mon ~component:"guestlib" ~instance ~name in
  let t =
    {
      engine;
      vm_id;
      cores;
      device;
      costs;
      profile;
      socks = Hashtbl.create 256;
      epolls = Hashtbl.create 4;
      memberships = Hashtbl.create 256;
      qstates =
        Array.init (Nk_device.n_qsets device) (fun _ ->
            { scheduled = false; last_active = 0.0; scratch = Array.make 128 Bytes.empty });
      mon;
      spans;
      instance;
      ctr =
        {
          c_nqes_tx = c "nqes_tx";
          c_nqes_rx = c "nqes_rx";
          c_bytes_sent = c "bytes_sent";
          c_bytes_received = c "bytes_received";
          c_send_eagain = c "send_eagain";
        };
      next_gid = 1;
      next_ep = 1;
    }
  in
  Nk_device.set_kick_owner device (fun qi -> on_kick t qi);
  t
