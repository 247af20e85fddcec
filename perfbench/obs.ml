(* Observers the benchmark wraps around the Socket_api.t records it hands
   to the applications. The program itself is not modified: every number
   here is read at the socket boundary, from outside the datapath. *)

module Api = Tcpstack.Socket_api
module Types = Tcpstack.Types

(* ---- simulated per-op latency ----------------------------------------- *)

(* Exact latency samples (simulated seconds) with their completion times;
   the loadgen's own histogram is bucketed, which would quantise p50. *)
type samples = { mutable lat : float list; mutable n : int }

let samples () = { lat = []; n = 0 }

let add s v =
  s.lat <- v :: s.lat;
  s.n <- s.n + 1

let to_array s = Array.of_list (List.rev s.lat)

(* One connection per request (the loadgen's pattern): a request starts at
   socket() and completes when [response] bytes have been received on it.
   [full] counts completions that closed with exactly [response] bytes,
   [oversized] those that received more. *)
type conn_req = {
  t0 : float;
  mutable dst : Addr.ip;
  mutable got : int;
  mutable complete : bool;
}

type requests = {
  lat_samples : samples;
  mutable completions : (float * Addr.ip) list;  (** completion time, server ip *)
  mutable full : int;
  mutable oversized : int;
}

let requests_api ~engine ~response (api : Api.t) =
  let r = { lat_samples = samples (); completions = []; full = 0; oversized = 0 } in
  let conns : (Api.sock, conn_req) Hashtbl.t = Hashtbl.create 256 in
  let now () = Sim.Engine.now engine in
  let socket () =
    let res = api.Api.socket () in
    (match res with
    | Ok fd -> Hashtbl.replace conns fd { t0 = now (); dst = -1; got = 0; complete = false }
    | Error _ -> ());
    res
  in
  let connect fd addr ~k =
    (match Hashtbl.find_opt conns fd with Some c -> c.dst <- addr.Addr.ip | None -> ());
    api.Api.connect fd addr ~k
  in
  let recv fd ~max ~mode ~k =
    api.Api.recv fd ~max ~mode ~k:(fun res ->
        (match (res, Hashtbl.find_opt conns fd) with
        | Ok p, Some c ->
            c.got <- c.got + Types.payload_len p;
            if c.got >= response && not c.complete then begin
              c.complete <- true;
              let t = now () in
              add r.lat_samples (t -. c.t0);
              r.completions <- (t, c.dst) :: r.completions
            end
        | _ -> ());
        k res)
  in
  let close fd =
    (match Hashtbl.find_opt conns fd with
    | Some c ->
        if c.complete then
          if c.got = response then r.full <- r.full + 1 else r.oversized <- r.oversized + 1;
        Hashtbl.remove conns fd
    | None -> ());
    api.Api.close fd
  in
  (r, { api with Api.socket; connect; recv; close })

(* Bulk streams: message [i] of a stream is bytes [i*size, (i+1)*size). It
   is issued by the send() call that had its first byte accepted and
   delivered when the sink has read its last byte. GuestLib does not expose
   the ephemeral port of a connecting socket, so sender and sink sides are
   paired by order: the n-th connect() with the n-th accept(). Workloads
   start their streams far enough apart for that order to hold, and the
   per-stream byte check catches a mispairing. *)
type stream = { issued : float Queue.t; mutable accepted : int; mutable delivered : int }

type bulk = { msg_samples : samples; streams : (int, stream) Hashtbl.t }

let bulk () = { msg_samples = samples (); streams = Hashtbl.create 16 }

let stream b idx =
  match Hashtbl.find_opt b.streams idx with
  | Some s -> s
  | None ->
      let s = { issued = Queue.create (); accepted = 0; delivered = 0 } in
      Hashtbl.replace b.streams idx s;
      s

let bulk_balanced b = Hashtbl.fold (fun _ s ok -> ok && s.accepted = s.delivered) b.streams true

let bulk_sender_api b ~engine ~size (api : Api.t) =
  let by_fd : (Api.sock, stream) Hashtbl.t = Hashtbl.create 16 in
  let connect fd addr ~k =
    Hashtbl.replace by_fd fd (stream b (Hashtbl.length by_fd));
    api.Api.connect fd addr ~k
  in
  let send fd payload ~k =
    let t_call = Sim.Engine.now engine in
    api.Api.send fd payload ~k:(fun res ->
        (match (res, Hashtbl.find_opt by_fd fd) with
        | Ok n, Some s ->
            let stop = s.accepted + n in
            for i = (s.accepted + size - 1) / size to (stop - 1) / size do
              if i * size < stop then Queue.push t_call s.issued
            done;
            s.accepted <- stop
        | _ -> ());
        k res)
  in
  { api with Api.connect; send }

let bulk_sink_api b ~engine ~size (api : Api.t) =
  let by_fd : (Api.sock, stream) Hashtbl.t = Hashtbl.create 16 in
  let accept ls ~k =
    api.Api.accept ls ~k:(fun res ->
        (match res with
        | Ok (fd, _) -> Hashtbl.replace by_fd fd (stream b (Hashtbl.length by_fd))
        | Error _ -> ());
        k res)
  in
  let recv fd ~max ~mode ~k =
    api.Api.recv fd ~max ~mode ~k:(fun res ->
        (match (res, Hashtbl.find_opt by_fd fd) with
        | Ok p, Some s ->
            let before = s.delivered / size in
            s.delivered <- s.delivered + Types.payload_len p;
            let t = Sim.Engine.now engine in
            for _ = before + 1 to s.delivered / size do
              match Queue.take_opt s.issued with
              | Some t0 -> add b.msg_samples (t -. t0)
              | None -> ()
            done
        | _ -> ());
        k res)
  in
  { api with Api.accept; recv }

(* ---- host self time inside socket calls (traced run only) -------------- *)

type host_acc = { mutable self_ns : int; mutable calls : int }

let host_acc () = { self_ns = 0; calls = 0 }

(* Child time of every open wrapped call, innermost first: a wrapped call
   made while another is running (a continuation invoked synchronously) is
   charged to itself and subtracted from its caller. *)
let open_calls : int ref list ref = ref []

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let timed acc f =
  let child = ref 0 in
  open_calls := child :: !open_calls;
  let t0 = now_ns () in
  let finish () =
    let elapsed = now_ns () - t0 in
    (match !open_calls with
    | _ :: (parent :: _ as rest) ->
        parent := !parent + elapsed;
        open_calls := rest
    | [ _ ] | [] -> open_calls := []);
    acc.self_ns <- acc.self_ns + elapsed - !child;
    acc.calls <- acc.calls + 1
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let timed_api acc (api : Api.t) =
  let t f = timed acc f in
  {
    Api.socket = (fun () -> t (fun () -> api.Api.socket ()));
    bind = (fun s a -> t (fun () -> api.Api.bind s a));
    listen = (fun s ~backlog -> t (fun () -> api.Api.listen s ~backlog));
    accept = (fun s ~k -> t (fun () -> api.Api.accept s ~k));
    connect = (fun s a ~k -> t (fun () -> api.Api.connect s a ~k));
    send = (fun s p ~k -> t (fun () -> api.Api.send s p ~k));
    recv = (fun s ~max ~mode ~k -> t (fun () -> api.Api.recv s ~max ~mode ~k));
    close = (fun s -> t (fun () -> api.Api.close s));
    epoll_create = (fun () -> t (fun () -> api.Api.epoll_create ()));
    epoll_add = (fun e s ~mask -> t (fun () -> api.Api.epoll_add e s ~mask));
    epoll_del = (fun e s -> t (fun () -> api.Api.epoll_del e s));
    epoll_wait = (fun e ~timeout ~k -> t (fun () -> api.Api.epoll_wait e ~timeout ~k));
    local_addr = (fun s -> t (fun () -> api.Api.local_addr s));
    peer_addr = (fun s -> t (fun () -> api.Api.peer_addr s));
  }
