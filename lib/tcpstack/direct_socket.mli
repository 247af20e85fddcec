(** Baseline socket layer: {!Socket_api.t} directly over an in-VM {!Stack}.

    This is "the status quo where an application uses the kernel TCP stack in
    its VM" (paper §7.1). Its [epoll_*] fields come from one
    {!Epoll_core.t} registry over the stack's socket readiness, woken at
    the stack profile's [epoll_wake] cost. *)

val make : Stack.t -> Socket_api.t
(** Build a socket API over [stack]. Handles are private to the returned
    record. *)
