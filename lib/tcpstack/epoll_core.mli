(** The epoll registry of one socket layer.

    Level-triggered readiness over {!Socket_api.sock} descriptors, with the
    waiter wake-up charged to the CPU core of the socket that became ready.
    Every socket layer — {!Direct_socket} (Baseline), {!Ops_socket} (NSM
    backends) and NetKernel's GuestLib — builds one registry and fills the
    [epoll_*] fields of its {!Socket_api.t} from it, so applications see
    the same I/O event notification semantics whichever stack serves them
    (paper §4.2). *)

type t

val create :
  engine:Sim.Engine.t ->
  events_of:(Socket_api.sock -> Types.events) ->
  core_of:(Socket_api.sock -> Sim.Cpu.t) ->
  wake_cycles:float ->
  unit ->
  t
(** [events_of] must return the descriptor's current readiness snapshot;
    [core_of] the core charged [wake_cycles] when a waiter is woken. *)

val notify : t -> Socket_api.sock -> unit
(** Tell every epoll [fd] is a member of that its readiness may have changed
    (each re-reads [events_of]), most recently added epoll first. With an
    allocation-free [events_of] it allocates nothing unless it wakes a
    waiter; a cheap no-op for a descriptor in no epoll. *)

val forget : t -> Socket_api.sock -> unit
(** The descriptor was closed: remove it from every epoll it is a member
    of, so none reports it again. *)

val epoll_create : t -> unit -> Socket_api.epoll

val epoll_add : t -> Socket_api.epoll -> Socket_api.sock -> mask:Types.events -> unit
(** Register interest in the event kinds set in [mask] (hup is always
    reported); re-adding updates the mask (epoll_mod). If the descriptor is
    already ready under the mask, a pending waiter is woken immediately.
    Unknown epolls are ignored. *)

val epoll_del : t -> Socket_api.epoll -> Socket_api.sock -> unit

val epoll_wait :
  t -> Socket_api.epoll -> timeout:float ->
  k:((Socket_api.sock * Types.events) list -> unit) -> unit
(** Deliver the ready set, in ascending descriptor order, once non-empty,
    or an empty list after [timeout] seconds (negative timeout = wait
    indefinitely); an unknown epoll delivers [[]] at once. One waiter per
    epoll; a second concurrent waiter replaces the first (which is
    dropped). *)
