module Engine = Sim.Engine
module Cpu = Sim.Cpu

type waiter = {
  k : (Socket_api.sock * Types.events) list -> unit;
  mutable timer : Engine.Timer.t option;
}

(* One epoll instance. The ready set is a sorted fd array updated in place,
   so readiness changes cost no allocation and a wake reads it out in
   ascending-fd order without a per-wake sort. *)
type ep = {
  members : (Socket_api.sock, Types.events) Hashtbl.t; (* fd -> interest mask *)
  mutable ready : Socket_api.sock array; (* [0, n_ready) ascending *)
  mutable n_ready : int;
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

let create ~engine ~events_of ~core_of ~wake_cycles () =
  { engine; events_of; core_of; wake_cycles; epolls = Hashtbl.create 8;
    memberships = Hashtbl.create 64; next_ep = 1 }

(* [ev] restricted to [mask] (hup is always reported). *)
let masked (mask : Types.events) (ev : Types.events) =
  Types.events
    ~readable:(ev.Types.readable && mask.Types.readable)
    ~writable:(ev.Types.writable && mask.Types.writable)
    ~hup:ev.Types.hup

let nonempty (e : Types.events) = e.Types.readable || e.Types.writable || e.Types.hup

(* ---- the sorted ready set ---- *)

(* Index of the first ready fd >= [fd] (binary search over [lo, hi)). *)
let rec ready_pos ep fd lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if ep.ready.(mid) < fd then ready_pos ep fd (mid + 1) hi else ready_pos ep fd lo mid

let mark_ready ep fd =
  let i = ready_pos ep fd 0 ep.n_ready in
  if i = ep.n_ready || ep.ready.(i) <> fd then begin
    if ep.n_ready = Array.length ep.ready then begin
      let grown = Array.make (2 * ep.n_ready) 0 in
      Array.blit ep.ready 0 grown 0 ep.n_ready;
      ep.ready <- grown
    end;
    Array.blit ep.ready i ep.ready (i + 1) (ep.n_ready - i);
    ep.ready.(i) <- fd;
    ep.n_ready <- ep.n_ready + 1
  end

let unmark_ready ep fd =
  let i = ready_pos ep fd 0 ep.n_ready in
  if i < ep.n_ready && ep.ready.(i) = fd then begin
    Array.blit ep.ready (i + 1) ep.ready i (ep.n_ready - i - 1);
    ep.n_ready <- ep.n_ready - 1
  end

(* The ready members that are still ready under their mask, ascending fd:
   the order epoll_wait hands out events is application-visible and must
   not depend on hash-bucket layout. *)
let ready_list t ep =
  let rec build i acc =
    if i < 0 then acc
    else
      let fd = ep.ready.(i) in
      match Hashtbl.find ep.members fd with
      | exception Not_found -> build (i - 1) acc
      | mask ->
          let ev = masked mask (t.events_of fd) in
          build (i - 1) (if nonempty ev then (fd, ev) :: acc else acc)
  in
  build (ep.n_ready - 1) []

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
  match Hashtbl.find ep.members fd with
  | exception Not_found -> ()
  | mask ->
      if nonempty (masked mask (t.events_of fd)) then begin
        mark_ready ep fd;
        try_wake t ep (t.core_of fd)
      end
      else unmark_ready ep fd

let remove_member ep fd =
  Hashtbl.remove ep.members fd;
  unmark_ready ep fd

(* Both walk only [fd]'s own epolls; [notify] runs on every socket event, so
   it allocates nothing and a descriptor in no epoll costs one failed
   lookup. *)
let rec notify_each t fd = function
  | [] -> ()
  | epid :: rest ->
      (match Hashtbl.find t.epolls epid with
      | exception Not_found -> ()
      | ep -> notify_one t ep fd);
      notify_each t fd rest

let notify t fd =
  match Hashtbl.find t.memberships fd with
  | exception Not_found -> ()
  | eps -> notify_each t fd eps

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
    { members = Hashtbl.create 64; ready = Array.make 16 0; n_ready = 0; waiter = None };
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
