(** NK device: the virtual device pairing a VM or NSM with CoreEngine.

    Bundles one queue set per vCPU plus the hugepage region reference, and
    carries the two notification directions:
    - [kick_ce]: the device owner produced outbound NQEs (GuestLib's job and
      send queues, or ServiceLib's completion and receive queues);
    - [kick_owner]: CoreEngine delivered inbound NQEs to queue set [i].

    The device also owns both halves of the owner-side protocol, so
    GuestLib, ServiceLib and the shared-memory NSM supply only their
    per-NQE [apply]: {!post} picks the ring from the NQE's op
    ({!Queue_set.kind_of_op}), and {!serve} is the one poll loop that
    drains the inbound rings.

    Outbound posting goes through a per-queue overflow buffer so a full
    ring backpressures instead of dropping (the simulated analogue of the
    producer spinning on a full lockless queue). *)

type role = Vm_side | Nsm_side

type t

val create :
  id:int ->
  role:role ->
  qsets:int ->
  ?capacity:int ->
  hugepages:Hugepages.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  unit ->
  t
(** [mon] records [nk_device/dev<id>/...] metrics (posted NQEs, ring-full
    spills, queued depth) and [Ring_full] trace events. [spans] lets the
    device mark the ring stage of traced requests at enqueue time. *)

val id : t -> int

val role : t -> role

val n_qsets : t -> int

val qset : t -> int -> Queue_set.t

val hugepages : t -> Hugepages.t

val set_kick_ce : t -> (int -> unit) -> unit
(** Installed by CoreEngine at registration; the argument is the queue-set
    index the owner posted on, so a sharded CoreEngine wakes only the
    switching shard that owns that queue set. *)

val set_kick_owner : t -> (int -> unit) -> unit
(** Argument is the queue-set index. {!serve} installs it for GuestLib,
    ServiceLib and the shared-memory NSM; Nkfabric's relay stub and proxy
    devices install their own synchronous drains. *)

val wake_thunk : t -> qset:int -> unit -> unit
(** Preallocated owner kick for queue set [qset] — the callback CoreEngine
    arms as a delayed owner wake. Shared so the per-delivery wake path
    does not allocate a closure. *)

val wake_armed_at : t -> qset:int -> float
(** Fire time of the last kick-owner wake armed for this queue set
    ([neg_infinity] before the first). When a delivery wants a wake at
    exactly this time, one is already scheduled and the new one may be
    elided: the owner-side polls are budgeted bursts, so the armed wake
    drains the whole same-instant burst. *)

val set_wake_armed_at : t -> qset:int -> float -> unit
(** Recorded by CoreEngine when it arms a wake; never cleared (virtual
    time is monotone, so a past stamp can never alias a future one). *)

val post : t -> qset:int -> bytes -> unit
(** Owner-side enqueue of an encoded NQE + CE kick, on the ring its op
    rides ({!Queue_set.kind_of_op}); spills to the overflow buffer when the
    ring is full. *)

val flush_overflow : t -> unit
(** Move spilled NQEs into their rings as space allows (CoreEngine calls
    this as it drains). *)

val outbound_pending : t -> qset:int -> int
(** Encoded NQEs waiting for the CoreEngine in [qset] (rings + overflow),
    counting the queues this device's owner produces. *)

val serve :
  t ->
  engine:Sim.Engine.t ->
  cores:Sim.Cpu.Set.t ->
  costs:Nk_costs.t ->
  instance:string ->
  apply:(qset:int -> bytes -> unit) ->
  unit
(** Install the device owner's poll loop (paper §4.5–4.6). A kick on queue
    set [i] that finds no poll running drains one budgeted burst of the
    owner's inbound pair in ring order, charges it on [Cpu.Set.core cores i],
    calls [apply ~qset:i raw] for each record that passes [Nqe.View.ok],
    and polls again until the pair is empty. Everything else follows from
    the device's {!role}:
    - [Vm_side] (GuestLib): completion then receive, up to 64 from each
      ring; [guest_poll] per burst, plus [guest_interrupt] when the queue
      set sat idle longer than [guest_idle_window]; span stage
      ["completion"], profile stage ["poll"].
    - [Nsm_side] (ServiceLib, shared-memory NSM): job then send, one burst
      of at most 64 across the pair; [service_poll] per burst; span stage
      ["servicelib"], profile stage ["dispatch"].

    Either way each burst also pays [n * nqe_decode], and each drained
    record's ["ring"] span stage closes. [instance] names the owner in span
    and profile records. *)

val stop : t -> unit
(** Stop serving: a burst already drained is still applied, but nothing
    more is drained (ServiceLib's crash path). *)
