module Engine = Sim.Engine
module Cpu = Sim.Cpu

type waiter = {
  k : (Socket_api.sock * Types.events) list -> unit;
  mutable timer : Engine.Timer.t option;
}

(* One epoll instance. *)
type ep = {
  members : (Socket_api.sock, Types.events) Hashtbl.t; (* fd -> interest mask *)
  ready : (Socket_api.sock, unit) Hashtbl.t;
  mutable waiter : waiter option;
}

type t = {
  engine : Engine.t;
  events_of : Socket_api.sock -> Types.events;
  core_of : Socket_api.sock -> Cpu.t;
  wake_cycles : float;
  epolls : (Socket_api.epoll, ep) Hashtbl.t;
  (* fd -> the epolls it is a member of, most recent first. The index keeps
     [notify] proportional to one fd's epolls, not to every epoll in the
     layer (clients may open one epoll per connection). *)
  memberships : (Socket_api.sock, Socket_api.epoll list) Hashtbl.t;
  mutable next_ep : int;
}

let nonempty (e : Types.events) = e.Types.readable || e.Types.writable || e.Types.hup

let create ~engine ~events_of ~core_of ~wake_cycles () =
  { engine; events_of; core_of; wake_cycles; epolls = Hashtbl.create 8;
    memberships = Hashtbl.create 64; next_ep = 1 }

let masked ep fd (ev : Types.events) =
  match Hashtbl.find_opt ep.members fd with
  | None -> Types.no_events
  | Some mask ->
      {
        Types.readable = ev.Types.readable && mask.Types.readable;
        writable = ev.Types.writable && mask.Types.writable;
        hup = ev.Types.hup;
      }

let ready_list t ep =
  (* Ascending-fd readiness order: the order epoll_wait hands out events is
     application-visible and must not depend on hash-bucket layout. *)
  Nkutil.Det_tbl.bindings ~cmp:Int.compare ep.ready
  |> List.filter_map (fun (fd, ()) ->
         let ev = masked ep fd (t.events_of fd) in
         if nonempty ev then Some (fd, ev) else None)

let try_wake t ep core =
  match ep.waiter with
  | None -> ()
  | Some w -> (
      match ready_list t ep with
      | [] -> ()
      | events ->
          ep.waiter <- None;
          (match w.timer with None -> () | Some h -> Engine.Timer.cancel h);
          Cpu.exec core ~cycles:t.wake_cycles (fun () -> w.k events))

let notify_one t ep fd =
  if Hashtbl.mem ep.members fd then begin
    let ev = masked ep fd (t.events_of fd) in
    if nonempty ev then begin
      Hashtbl.replace ep.ready fd ();
      try_wake t ep (t.core_of fd)
    end
    else Hashtbl.remove ep.ready fd
  end

let remove_member ep fd =
  Hashtbl.remove ep.members fd;
  Hashtbl.remove ep.ready fd

(* Both walk only [fd]'s own epolls; [notify] runs on every socket event, so
   a descriptor in no epoll costs one failed lookup and no allocation. *)
let notify t fd =
  match Hashtbl.find_opt t.memberships fd with
  | None -> ()
  | Some eps ->
      List.iter
        (fun epid ->
          match Hashtbl.find_opt t.epolls epid with
          | None -> ()
          | Some ep -> notify_one t ep fd)
        eps

let forget t fd =
  match Hashtbl.find_opt t.memberships fd with
  | None -> ()
  | Some eps ->
      List.iter
        (fun epid ->
          match Hashtbl.find_opt t.epolls epid with
          | None -> ()
          | Some ep -> remove_member ep fd)
        eps;
      Hashtbl.remove t.memberships fd

let epoll_create t () =
  let epid = t.next_ep in
  t.next_ep <- t.next_ep + 1;
  Hashtbl.replace t.epolls epid
    { members = Hashtbl.create 64; ready = Hashtbl.create 64; waiter = None };
  epid

let epoll_add t epid fd ~mask =
  match Hashtbl.find_opt t.epolls epid with
  | None -> ()
  | Some ep ->
      Hashtbl.replace ep.members fd mask;
      notify_one t ep fd;
      let eps = Option.value (Hashtbl.find_opt t.memberships fd) ~default:[] in
      if not (List.mem epid eps) then Hashtbl.replace t.memberships fd (epid :: eps)

let epoll_del t epid fd =
  match Hashtbl.find_opt t.epolls epid with
  | None -> ()
  | Some ep -> (
      remove_member ep fd;
      match Hashtbl.find_opt t.memberships fd with
      | None -> ()
      | Some eps -> Hashtbl.replace t.memberships fd (List.filter (fun e -> e <> epid) eps))

let epoll_wait t epid ~timeout ~k =
  match Hashtbl.find_opt t.epolls epid with
  | None -> k []
  | Some ep -> (
      match ready_list t ep with
      | (fd1, _) :: _ as events ->
          Cpu.exec (t.core_of fd1) ~cycles:t.wake_cycles (fun () -> k events)
      | [] ->
          let w = { k; timer = None } in
          if timeout >= 0.0 then
            w.timer <-
              Some
                (Engine.schedule t.engine ~delay:timeout (fun () ->
                     match ep.waiter with
                     | Some w' when w' == w ->
                         ep.waiter <- None;
                         w.k []
                     | Some _ | None -> ()));
          ep.waiter <- Some w)
