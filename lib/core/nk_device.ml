module Engine = Sim.Engine

type role = Vm_side | Nsm_side

type overflow = { q : Queue_set.kind; qset : int; nqe : bytes }

type t = {
  id : int;
  role : role;
  qsets : Queue_set.t array;
  hugepages : Hugepages.t;
  overflow : overflow Queue.t;
  (* Fire time of the last owner wake armed per queue set. A burst of
     deliveries from one CoreEngine callback all want a wake at the same
     instant; arming one is enough — the owner's budgeted poll drains the
     whole burst. Never cleared: the clock only moves forward, so a stale
     stamp can't equal a future fire time. *)
  wake_armed_at : float array;
  (* One preallocated kick-owner thunk per queue set, so arming a wake
     (millions per run) schedules a shared closure instead of building a
     fresh one each time. *)
  mutable wake_thunks : (unit -> unit) array;
  mutable kick_ce : (int -> unit) option;
  mutable kick_owner : (int -> unit) option;
  mutable stopped : bool;
  mon : Nkmon.t;
  spans : Nkspan.t;
  instance : string;
  c_posted : Nkmon.Registry.counter;
  c_ring_full : Nkmon.Registry.counter;
}

let create ~id ~role ~qsets ?capacity ~hugepages ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) () =
  if qsets < 1 then invalid_arg "Nk_device.create: need at least one queue set";
  let instance = Printf.sprintf "dev%d" id in
  let t =
    {
      id;
      role;
      qsets = Array.init qsets (fun _ -> Queue_set.create ?capacity ());
      hugepages;
      overflow = Queue.create ();
      wake_armed_at = Array.make qsets neg_infinity;
      wake_thunks = [||];
      kick_ce = None;
      kick_owner = None;
      stopped = false;
      mon;
      spans;
      instance;
      c_posted = Nkmon.counter mon ~component:"nk_device" ~instance ~name:"posted";
      c_ring_full = Nkmon.counter mon ~component:"nk_device" ~instance ~name:"ring_full";
    }
  in
  Nkmon.sampler mon ~component:"nk_device" ~instance ~name:"queued" (fun () ->
      float_of_int
        (Array.fold_left (fun acc s -> acc + Queue_set.total_queued s) 0 t.qsets
        + Queue.length t.overflow));
  t.wake_thunks <-
    Array.init qsets (fun i () -> match t.kick_owner with None -> () | Some f -> f i);
  t

let id t = t.id

let role t = t.role

let n_qsets t = Array.length t.qsets

let qset t i = t.qsets.(i)

let hugepages t = t.hugepages

let set_kick_ce t f = t.kick_ce <- Some f

let set_kick_owner t f = t.kick_owner <- Some f

let wake_thunk t ~qset = t.wake_thunks.(qset)

let wake_armed_at t ~qset = t.wake_armed_at.(qset)

let set_wake_armed_at t ~qset at = t.wake_armed_at.(qset) <- at

let rec flush_overflow t =
  if not (Queue.is_empty t.overflow) then begin
    let o = Queue.peek t.overflow in
    if Nkutil.Spsc_ring.push (Queue_set.ring t.qsets.(o.qset) o.q) o.nqe then begin
      ignore (Queue.pop t.overflow);
      flush_overflow t
    end
  end

let post t ~qset nqe =
  flush_overflow t;
  let q = Queue_set.kind_of_op (Nqe.View.op nqe) in
  Nkmon.Registry.incr t.c_posted;
  (* Device enqueue opens the ring stage of a traced request; whichever
     component dequeues it closes the stage, so ring time covers the SPSC
     wait plus any overflow spill. *)
  if Nkspan.enabled t.spans then begin
    let span = Nqe.span_of_raw nqe in
    if span > 0 then
      Nkspan.begin_stage t.spans ~id:span
        ~component:(t.instance ^ "." ^ Queue_set.queue_name q)
        "ring"
  end;
  if
    (not (Queue.is_empty t.overflow))
    || not (Nkutil.Spsc_ring.push (Queue_set.ring t.qsets.(qset) q) nqe)
  then begin
    Nkmon.Registry.incr t.c_ring_full;
    if Nkmon.tracing t.mon then
      Nkmon.event t.mon
        (Nkmon.Trace.Ring_full { device = t.id; qset; queue = Queue_set.trace_queue q });
    Queue.add { q; qset; nqe } t.overflow
  end;
  match t.kick_ce with None -> () | Some f -> f qset

let outbound_pending t ~qset =
  let s = t.qsets.(qset) in
  let ring_part =
    match t.role with
    | Vm_side ->
        Nkutil.Spsc_ring.length s.Queue_set.job + Nkutil.Spsc_ring.length s.Queue_set.send
    | Nsm_side ->
        Nkutil.Spsc_ring.length s.Queue_set.completion
        + Nkutil.Spsc_ring.length s.Queue_set.receive
  in
  ring_part + Queue.length t.overflow

(* ---- owner poll loop ----------------------------------------------------- *)

(* The owner side of [serve]: per queue set, whether a poll is running or
   scheduled, when the last burst finished, and a reusable burst buffer —
   per queue set because the apply loop runs deferred (behind [Cpu.exec])
   while another queue set may already be draining. A queue set has at most
   one burst in flight ([scheduled] stays set until a poll finds its rings
   empty), so its burst size and continuation are preallocated too. *)
type server = {
  engine : Engine.t;
  cores : Sim.Cpu.Set.t;
  costs : Nk_costs.t;
  instance : string;
  apply : qset:int -> bytes -> unit;
  scheduled : bool array;
  last_active : float array;
  scratch : bytes array array;
  drained : int array;
  mutable bursts : (unit -> unit) array;
}

let rec poll t srv qi =
  if t.stopped then srv.scheduled.(qi) <- false
  else begin
    let buf = srv.scratch.(qi) in
    (* One wakeup drains a budgeted burst of the owner's inbound pair into
       the scratch buffer in ring order: GuestLib takes up to 64 each from
       completion then receive, ServiceLib one burst of at most 64 across
       job then send (jobs first). *)
    let s = t.qsets.(qi) in
    let n =
      match t.role with
      | Vm_side -> Queue_set.drain_into s ~toward:`Vm buf ~budget:64 ~shared:false
      | Nsm_side -> Queue_set.drain_into s ~toward:`Nsm buf ~budget:64 ~shared:true
    in
    if n = 0 then srv.scheduled.(qi) <- false
    else begin
      srv.drained.(qi) <- n;
      let c = srv.costs in
      let cycles =
        match t.role with
        | Vm_side ->
            (* The device slept after the 20 us polling window; waking it
               costs an interrupt (interrupt-driven polling, §4.6). *)
            let idle = Engine.now srv.engine -. srv.last_active.(qi) in
            let wake_extra =
              if idle > c.Nk_costs.guest_idle_window then c.Nk_costs.guest_interrupt
              else 0.0
            in
            c.Nk_costs.guest_poll +. wake_extra +. (float_of_int n *. c.Nk_costs.nqe_decode)
        | Nsm_side -> c.Nk_costs.service_poll +. (float_of_int n *. c.Nk_costs.nqe_decode)
      in
      (* Traced NQEs leave the ring here: poll + decode + core queueing
         accrue to the owner's first stage (only Comp_send and Send NQEs
         carry a span id, the rest peek as 0). *)
      if Nkspan.enabled t.spans then
        for i = 0 to n - 1 do
          let span = Nqe.span_of_raw buf.(i) in
          Nkspan.end_stage t.spans ~id:span "ring";
          let component = srv.instance in
          match t.role with
          | Vm_side -> Nkspan.begin_stage t.spans ~id:span ~component "completion"
          | Nsm_side -> Nkspan.begin_stage t.spans ~id:span ~component "servicelib"
        done;
      let component = srv.instance and core = Sim.Cpu.Set.core srv.cores qi in
      let k = srv.bursts.(qi) in
      match t.role with
      | Vm_side -> Nkspan.exec t.spans ~component ~stage:"poll" core ~cycles k
      | Nsm_side -> Nkspan.exec t.spans ~component ~stage:"dispatch" core ~cycles k
    end
  end

and apply_burst t srv qi =
  let buf = srv.scratch.(qi) in
  for i = 0 to srv.drained.(qi) - 1 do
    let raw = buf.(i) in
    if Nqe.View.ok raw then srv.apply ~qset:qi raw
  done;
  srv.last_active.(qi) <- Engine.now srv.engine;
  poll t srv qi

let serve t ~engine ~cores ~costs ~instance ~apply =
  let n = Array.length t.qsets in
  let slots = match t.role with Vm_side -> 128 | Nsm_side -> 64 in
  let srv =
    {
      engine;
      cores;
      costs;
      instance;
      apply;
      scheduled = Array.make n false;
      last_active = Array.make n 0.0;
      scratch = Array.init n (fun _ -> Array.make slots Bytes.empty);
      drained = Array.make n 0;
      bursts = [||];
    }
  in
  srv.bursts <- Array.init n (fun qi () -> apply_burst t srv qi);
  set_kick_owner t (fun qi ->
      if not srv.scheduled.(qi) then begin
        srv.scheduled.(qi) <- true;
        poll t srv qi
      end)

let stop t = t.stopped <- true
