(** The BSD-socket abstraction boundary.

    This record of functions is the equivalent of the paper's "BSD socket
    APIs kept intact" (§1): applications are written against it once and run
    unmodified over either the baseline in-VM stack ({!Direct_socket}) or
    NetKernel's GuestLib redirection — the paper's central claim of
    transparent redirection, expressed in OCaml as implementations of one
    interface ({!Direct_socket}, {!Ops_socket} and GuestLib). Every
    implementation fills the [epoll_*] fields from one {!Epoll_core.t}
    registry, so event notification cannot drift between them.

    All potentially-blocking calls take a continuation; [send]/[recv] are
    non-blocking ([Eagain]) and meant to be driven by [epoll_wait]. *)

type sock = int
(** Socket descriptor (per-API namespace). *)

type epoll = int
(** Epoll instance descriptor. *)

type t = {
  socket : unit -> (sock, Types.err) result;
  bind : sock -> Addr.t -> (unit, Types.err) result;
  listen : sock -> backlog:int -> (unit, Types.err) result;
  accept : sock -> k:((sock * Addr.t, Types.err) result -> unit) -> unit;
  connect : sock -> Addr.t -> k:((unit, Types.err) result -> unit) -> unit;
  send : sock -> Types.payload -> k:((int, Types.err) result -> unit) -> unit;
  recv :
    sock -> max:int -> mode:Types.recv_mode ->
    k:((Types.payload, Types.err) result -> unit) -> unit;
  close : sock -> unit;
  epoll_create : unit -> epoll;
  epoll_add : epoll -> sock -> mask:Types.events -> unit;
  epoll_del : epoll -> sock -> unit;
  epoll_wait :
    epoll -> timeout:float -> k:((sock * Types.events) list -> unit) -> unit;
      (** Delivers when at least one registered socket is ready, or after
          [timeout] (negative = wait forever) with an empty list. *)
  local_addr : sock -> Addr.t option;
  peer_addr : sock -> Addr.t option;
}
