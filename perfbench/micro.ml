(* Micro loops over public functions, host ns per iteration on fixed
   inputs. This is the one harness for them: the cases cover the dataplane
   primitives the Bechamel suite in bench/main.ml times (NQE codec, SPSC
   ring, hugepage copy, engine timers) plus the ones the workloads below
   lean on. Each case names the module it times and the workload whose
   run_s it should predict. *)

open Tcpstack

type case = { name : string; modname : string; workload : string; make : unit -> unit -> unit }

let engine_schedule_fire () =
  let engine = Sim.Engine.create () in
  fun () ->
    let a = Sim.Engine.schedule engine ~delay:1e-6 ignore in
    ignore (Sim.Engine.schedule engine ~delay:2e-6 ignore);
    Sim.Engine.Timer.cancel a;
    ignore (Sim.Engine.step engine);
    ignore (Sim.Engine.step engine)

let nqe_codec () =
  fun () ->
    let nqe =
      Nkcore.Nqe.make ~op:Nkcore.Nqe.Send ~vm_id:1 ~qset:0 ~sock:42 ~data_ptr:4096 ~size:8192 ()
    in
    match Nkcore.Nqe.decode (Nkcore.Nqe.encode nqe) with
    | Ok _ -> ()
    | Error e -> failwith e

let nqe_view () =
  let raw =
    Nkcore.Nqe.encode
      (Nkcore.Nqe.make ~op:Nkcore.Nqe.Send ~vm_id:1 ~qset:0 ~sock:42 ~data_ptr:4096 ~size:8192
         ~span:7 ())
  in
  let module V = Nkcore.Nqe.View in
  fun () ->
    let raw = Sys.opaque_identity raw in
    ignore
      (Sys.opaque_identity
         (V.op_byte raw + V.vm_id raw + V.qset raw + V.sock raw + V.data_ptr raw + V.size raw
        + V.span raw))

let spsc_ring () =
  let ring = Nkutil.Spsc_ring.create ~capacity:1024 in
  let payload = Bytes.create 32 in
  fun () ->
    ignore (Nkutil.Spsc_ring.push ring payload);
    ignore (Nkutil.Spsc_ring.pop ring)

let page = 4096

let hugepage payload ~synthetic () =
  let hp = Nkcore.Hugepages.create ~page_size:(2 * 1024 * 1024) ~pages:1 () in
  fun () ->
    match Nkcore.Hugepages.alloc hp page with
    | None -> failwith "hugepages full"
    | Some e ->
        Nkcore.Hugepages.write_payload hp e payload;
        ignore
          (Sys.opaque_identity (Nkcore.Hugepages.read_payload hp e ~pos:0 ~len:page ~synthetic));
        Nkcore.Hugepages.free hp e

let byte_fifo () =
  let fifo = Nkutil.Byte_fifo.create () in
  let data = String.make page 'x' in
  fun () ->
    Nkutil.Byte_fifo.write fifo data;
    ignore (Sys.opaque_identity (Nkutil.Byte_fifo.read fifo page))

(* An established connection, then snapshot + restore on a fresh twin. *)
let tcb_snapshot_restore () =
  let engine = Sim.Engine.create () in
  let registry = Conn_registry.create () in
  let mkcc () = Cc_reno.create ~mss:Segment.mss () in
  let act out =
    {
      Tcb.now = (fun () -> Sim.Engine.now engine);
      emit = (fun seg -> Queue.push seg out);
      set_timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
      cancel_timer = Sim.Engine.Timer.cancel;
      on_established = ignore;
      on_readable = ignore;
      on_writable = ignore;
      on_error = (fun _ -> ());
      on_destroy = ignore;
      on_transition = (fun _ _ -> ());
    }
  in
  let flow = Addr.Flow.make ~src:(Addr.make 1 5000) ~dst:(Addr.make 2 80) in
  let channel = Conn_registry.register registry ~flow ~isn:1000 in
  let cq = Queue.create () and sq = Queue.create () in
  let client =
    Tcb.create_active ~flow ~cfg:Tcb.default_config ~act:(act cq) ~cc:(mkcc ()) ~isn:1000
      ~channel
  in
  let syn = Queue.pop cq in
  let server =
    Tcb.create_passive ~flow:(Addr.Flow.reverse flow) ~cfg:Tcb.default_config ~act:(act sq)
      ~cc:(mkcc ()) ~isn:2000 ~remote_isn:syn.Segment.seq ~remote_ts:syn.Segment.ts ~channel
  in
  let rec pump () =
    match (Queue.take_opt cq, Queue.take_opt sq) with
    | None, None -> ()
    | c, s ->
        Option.iter (Tcb.input server) c;
        Option.iter (Tcb.input client) s;
        pump ()
  in
  pump ();
  ignore (Tcb.write client (Types.Zeros 20_000));
  pump ();
  if Tcb.state client <> Tcb.Established then failwith "micro: handshake did not complete";
  let mute = act (Queue.create ()) in
  fun () ->
    let twin =
      Tcb.restore ~act:mute ~cc:(mkcc ()) ~channel ~role:`Client (Tcb.snapshot client)
    in
    Tcb.destroy_quiet twin

let histogram_record () =
  let h = Nkutil.Histogram.create () in
  let v = ref 1e-6 in
  fun () ->
    v := if !v > 1e-2 then 1e-6 else !v *. 1.01;
    Nkutil.Histogram.record h !v

let cases =
  [
    { name = "micro.engine_schedule_fire_ns"; modname = "Sim.Engine"; workload = "all";
      make = engine_schedule_fire };
    { name = "micro.nqe_codec_ns"; modname = "Nkcore.Nqe"; workload = "rpc-short"; make = nqe_codec };
    { name = "micro.nqe_view_ns"; modname = "Nkcore.Nqe.View"; workload = "rpc-short";
      make = nqe_view };
    { name = "micro.spsc_ring_ns"; modname = "Nkutil.Spsc_ring"; workload = "rpc-short";
      make = spsc_ring };
    { name = "micro.hugepage_data_4k_ns"; modname = "Nkcore.Hugepages"; workload = "kv-bytes";
      make = hugepage (Types.Data (String.make page 'x')) ~synthetic:false };
    { name = "micro.hugepage_zeros_4k_ns"; modname = "Nkcore.Hugepages"; workload = "bulk-stream";
      make = hugepage (Types.Zeros page) ~synthetic:true };
    { name = "micro.byte_fifo_4k_ns"; modname = "Nkutil.Byte_fifo"; workload = "kv-bytes";
      make = byte_fifo };
    { name = "micro.tcb_snapshot_restore_ns"; modname = "Tcpstack.Tcb"; workload = "cluster-migrate";
      make = tcb_snapshot_restore };
    { name = "micro.histogram_record_ns"; modname = "Nkutil.Histogram"; workload = "all";
      make = histogram_record };
  ]

let now_ns = Obs.now_ns

(* Batches grow until one takes at least 2 ms; the result is the median
   batch over [budget] host seconds (at least five batches). *)
let measure ~budget f =
  let rec calibrate n =
    let t0 = now_ns () in
    for _ = 1 to n do f () done;
    if now_ns () - t0 >= 2_000_000 || n >= 1 lsl 24 then n else calibrate (n * 2)
  in
  let n = calibrate 16 in
  let deadline = now_ns () + int_of_float (budget *. 1e9) in
  let rec batches acc k =
    if k >= 5 && now_ns () >= deadline then acc
    else begin
      let t0 = now_ns () in
      for _ = 1 to n do f () done;
      batches (float_of_int (now_ns () - t0) /. float_of_int n :: acc) (k + 1)
    end
  in
  Nkutil.Stats.median (Array.of_list (batches [] 0))

let run ~budget =
  let per_case = budget /. float_of_int (List.length cases) in
  List.map (fun c -> (c, measure ~budget:per_case (c.make ()))) cases
