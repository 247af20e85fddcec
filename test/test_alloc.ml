(* Allocation budgets for the steady-state datapath (DESIGN.md §13).

   Each case runs one datapath operation many times and divides the minor
   words allocated by the call count. The budgets sit just above what the
   code needs today, so re-adding a payload copy, a boxed float, a
   free-list rebuild or a per-call closure fails the suite and the message
   names the layer that regressed. The figures are deterministic for a
   given compiler; run with [dune runtest]. *)

open Nkcore
module Types = Tcpstack.Types

let iters = 10_000

(* Minor words per call of [f], after one warm-up call. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check ~layer ~what ~budget f =
  let w = words_per_call f in
  if w > budget then
    Alcotest.failf "%s: %s allocates %.1f words/call, budget %.1f" layer what w budget

(* Extent option + live-table bucket on alloc; the hole array itself
   allocates nothing. *)
let hugepages_pair () =
  let hp = Hugepages.create ~page_size:65536 ~pages:4 () in
  (* Some fragmentation, so alloc and free walk and patch real holes. *)
  let keep = List.init 8 (fun _ -> Option.get (Hugepages.alloc hp 1000)) in
  List.iteri (fun i e -> if i mod 2 = 0 then Hugepages.free hp e) keep;
  check ~layer:"Nkcore.Hugepages" ~what:"alloc+free of a 1 KB extent" ~budget:12.0
    (fun () ->
      match Hugepages.alloc hp 1000 with
      | Some e -> Hugepages.free hp e
      | None -> Alcotest.fail "hugepages: region exhausted")

(* One chunk record and one queue cell; the read hands the string back. *)
let byte_fifo_pair () =
  let f = Nkutil.Byte_fifo.create () in
  let s = String.make 1024 'x' in
  check ~layer:"Nkutil.Byte_fifo" ~what:"write_string + whole-chunk read of 1 KB"
    ~budget:10.0 (fun () ->
      Nkutil.Byte_fifo.write_string f s ~pos:0 ~len:1024;
      if Nkutil.Byte_fifo.read f 1024 != s then Alcotest.fail "byte fifo: read copied")

let cpu_accounting () =
  let engine = Sim.Engine.create () in
  let core = Sim.Cpu.create engine ~name:"c" () in
  check ~layer:"Sim.Cpu" ~what:"charge" ~budget:0.1 (fun () -> Sim.Cpu.charge core ~cycles:100.0);
  (* [exec] adds to the engine's own event only the boxed completion time
     it passes to [schedule_at] (2 words); compare with a bare schedule at
     a constant time. *)
  let bare = words_per_call (fun () -> ignore (Sim.Engine.schedule_at engine ~at:1.0 ignore)) in
  check ~layer:"Sim.Cpu" ~what:"exec (beyond Engine.schedule_at)" ~budget:(bare +. 2.1)
    (fun () -> Sim.Cpu.exec core ~cycles:100.0 ignore)

(* The event record (time, seq, callback, bucket link: 4 fields + header)
   and the boxed time it points to (here the caller's, 2 words); the
   callback is static, and compacting the cancelled records out of the
   wheel allocates nothing. *)
let engine_schedule_cancel () =
  let engine = Sim.Engine.create () in
  let at = ref 1.0 in
  check ~layer:"Sim.Engine" ~what:"schedule_at + Timer.cancel" ~budget:7.5 (fun () ->
      at := !at +. 1e-6;
      Sim.Engine.Timer.cancel (Sim.Engine.schedule_at engine ~at:!at ignore))

(* fd 1 is ready in epoll [a] (whose application is busy: no waiter) and a
   member of epoll [b], where a waiter is parked on writability fd 1 does
   not have. [notify] re-reads readiness for both and wakes nobody. *)
let epoll_notify () =
  let engine = Sim.Engine.create () in
  let core = Sim.Cpu.create engine ~name:"c" () in
  let ep =
    Tcpstack.Epoll_core.create ~engine
      ~events_of:(fun _ -> Types.events ~readable:true ~writable:false ~hup:false)
      ~core_of:(fun _ -> core) ~wake_cycles:10.0 ()
  in
  let a = Tcpstack.Epoll_core.epoll_create ep () in
  let b = Tcpstack.Epoll_core.epoll_create ep () in
  let rd = Types.events ~readable:true ~writable:false ~hup:false in
  let wr = Types.events ~readable:false ~writable:true ~hup:false in
  Tcpstack.Epoll_core.epoll_add ep a 1 ~mask:rd;
  Tcpstack.Epoll_core.epoll_add ep b 1 ~mask:wr;
  let woken = ref false in
  Tcpstack.Epoll_core.epoll_wait ep b ~timeout:(-1.0) ~k:(fun _ -> woken := true);
  check ~layer:"Tcpstack.Epoll_core" ~what:"notify (ready member, parked waiter)" ~budget:0.1
    (fun () -> Tcpstack.Epoll_core.notify ep 1);
  Sim.Engine.run engine;
  if !woken then Alcotest.fail "epoll: waiter woken without readiness"

(* A burst of 64 inbound Ev_data NQEs for one socket, drained by one
   GuestLib poll: per NQE, the receive chunk it queues plus its share of
   the poll's continuation. *)
let guestlib_ev_data () =
  let engine = Sim.Engine.create () in
  let cores = Sim.Cpu.Set.create engine ~name:"vm" ~n:1 () in
  let device =
    Nk_device.create ~id:1 ~role:Nk_device.Vm_side ~qsets:1
      ~hugepages:(Hugepages.create ~page_size:4096 ~pages:4 ())
      ()
  in
  let glib =
    Guestlib.create ~engine ~vm_id:1 ~cores ~device ~costs:Nk_costs.default
      ~profile:Sim.Cost_profile.linux_kernel ()
  in
  let api = Guestlib.api glib in
  let gid = match api.Tcpstack.Socket_api.socket () with Ok g -> g | Error _ -> assert false in
  let burst = 64 in
  let raw =
    Array.init burst (fun i ->
        Nqe.encode
          (Nqe.make ~op:Nqe.Ev_data ~vm_id:1 ~qset:0 ~sock:gid ~data_ptr:(64 * i) ~size:64 ()))
  in
  let ring = (Nk_device.qset device 0).Queue_set.receive in
  let kick = Nk_device.wake_thunk device ~qset:0 in
  let bursts = ref 0 in
  let per_burst =
    words_per_call (fun () ->
        Sys.opaque_identity
          (Array.iter (fun r -> ignore (Nkutil.Spsc_ring.push ring r)) raw);
        kick ();
        Sim.Engine.run engine;
        incr bursts)
  in
  (* The ring's own per-push option is the producer's cost, not apply's. *)
  let push_cost = 2.0 in
  let per_nqe = (per_burst /. float_of_int burst) -. push_cost in
  let budget = 14.0 in
  if per_nqe > budget then
    Alcotest.failf "Nkcore.Guestlib: inbound Ev_data apply allocates %.1f words/NQE, budget %.1f"
      per_nqe budget;
  if !bursts < 2 then Alcotest.fail "guestlib: no bursts ran"

(* VM->NSM switching: bursts of 32 Send NQEs on one routed socket, posted,
   swept, routed through the connection table and pushed to the NSM's send
   ring. Per NQE: the two ring cells (post and switch) plus each burst's
   share of its sweep event, wake-up and continuation. *)
let coreengine_switch () =
  let engine = Sim.Engine.create () in
  let core = Sim.Cpu.create engine ~name:"ce" () in
  let ce = Coreengine.create ~engine ~cores:[| core |] Nk_costs.default in
  let device ~role =
    Nk_device.create ~id:1 ~role ~qsets:1
      ~hugepages:(Hugepages.create ~page_size:4096 ~pages:4 ())
      ()
  in
  let vm = device ~role:Nk_device.Vm_side and nsm = device ~role:Nk_device.Nsm_side in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Nk_device.set_kick_owner nsm ignore;
  let burst = 32 in
  let raw =
    Array.init burst (fun _ ->
        Nqe.encode (Nqe.make ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:7 ~size:100 ()))
  in
  let sink = Array.make burst Bytes.empty in
  let send_ring = (Nk_device.qset nsm 0).Queue_set.send in
  let per_burst =
    words_per_call (fun () ->
        Array.iter (fun r -> Nk_device.post vm ~qset:0 r) raw;
        Sim.Engine.run engine;
        if Nkutil.Spsc_ring.pop_slice send_ring sink ~pos:0 ~max:burst <> burst then
          Alcotest.fail "coreengine: burst not switched")
  in
  let per_nqe = per_burst /. float_of_int burst in
  let budget = 22.0 in
  if per_nqe > budget then
    Alcotest.failf "Nkcore.Coreengine: switching allocates %.1f words/NQE, budget %.1f" per_nqe
      budget

let tests =
  [
    Alcotest.test_case "hugepages alloc+free" `Quick hugepages_pair;
    Alcotest.test_case "byte fifo write_string + whole-chunk read" `Quick byte_fifo_pair;
    Alcotest.test_case "cpu exec/charge" `Quick cpu_accounting;
    Alcotest.test_case "engine schedule+cancel" `Quick engine_schedule_cancel;
    Alcotest.test_case "epoll notify" `Quick epoll_notify;
    Alcotest.test_case "guestlib Ev_data apply" `Quick guestlib_ev_data;
    Alcotest.test_case "coreengine switch" `Quick coreengine_switch;
  ]
