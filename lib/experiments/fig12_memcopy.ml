(* Fig 12: message copy throughput through hugepages vs message size.

   Deterministic microbenchmark of the paper's §7.2 memory-copy path: the
   sender copies a message into the hugepage region and builds a send NQE
   with the data pointer; the NQE crosses two rings (GuestLib device ->
   CoreEngine -> ServiceLib device); the receiver resolves the pointer and
   copies the message out. The data movement is real; time is charged from
   the calibrated cycle-cost model (Nk_costs) with the memory-bandwidth
   pressure feedback of Sim.Pressure (the Table 6 mechanism: per-byte copy
   cost grows with the modeled throughput), so the result is bit-identical
   across runs and machines. Wall-clock measurement of the raw primitives
   lives in perfbench/micro.ml (nkscope rule T1 keeps wall clocks out of lib/).

   Paper: >100 Gb/s for messages >= 4KB, ~144 Gb/s at 8KB. *)

open Nkcore

let sizes = [ 64; 256; 1024; 4096; 8192; 16384; 65536 ]

(* The paper's testbed core clock: converts modeled cycles to seconds. *)
let cycles_per_sec = 2.3e9

let run_one ~size ~iterations =
  let costs = Nk_costs.default in
  let engine = Sim.Engine.create () in
  (* A time constant that spans many modeled messages at every size (the
     largest message costs a few µs of modeled time): long enough to damp
     the quadratic contention feedback into its fixed point, short enough
     to converge well inside the run (the default 10 ms tau is sized for
     full simulation runs, not a microbenchmark's sub-ms horizon). *)
  let pressure = Sim.Pressure.create engine ~tau:1e-4 () in
  let hp = Hugepages.create ~page_size:(2 * 1024 * 1024) ~pages:8 () in
  let ring_a = Nkutil.Spsc_ring.create ~capacity:1024 in
  let ring_b = Nkutil.Spsc_ring.create ~capacity:1024 in
  let message = String.make size 'x' in
  let out = Bytes.create size in
  let moved = ref 0 in
  let cycles = ref 0.0 in
  for _ = 1 to iterations do
    (match Hugepages.alloc hp size with
    | None -> failwith "fig12: hugepage exhausted"
    | Some extent ->
        (* sender: copy in, emit NQE *)
        Hugepages.write_payload hp extent (Tcpstack.Types.Data message);
        let nqe =
          Nqe.encode
            (Nqe.make ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:7
               ~data_ptr:extent.Hugepages.offset ~size ())
        in
        ignore (Nkutil.Spsc_ring.push ring_a nqe);
        (* CoreEngine: one ring to the other *)
        (match Nkutil.Spsc_ring.pop ring_a with
        | Some raw -> ignore (Nkutil.Spsc_ring.push ring_b raw)
        | None -> ());
        (* receiver: decode, copy out, free *)
        (match Nkutil.Spsc_ring.pop ring_b with
        | Some raw -> (
            match Nqe.decode raw with
            | Ok d -> (
                match
                  Hugepages.read_payload hp
                    { Hugepages.offset = d.Nqe.data_ptr; len = d.Nqe.size }
                    ~pos:0 ~len:d.Nqe.size ~synthetic:false
                with
                | Tcpstack.Types.Data s ->
                    Bytes.blit_string s 0 out 0 (String.length s);
                    moved := !moved + d.Nqe.size
                | Tcpstack.Types.Zeros _ -> ())
            | Error _ -> ())
        | None -> ());
        Hugepages.free hp extent;
        (* charge the modeled path: alloc + encode + switch + decode plus
           the two pressure-dependent hugepage copies (in and out) *)
        let msg_cycles =
          costs.Nk_costs.hugepage_alloc +. costs.Nk_costs.nqe_encode
          +. costs.Nk_costs.ce_switch +. costs.Nk_costs.nqe_decode
          +. (2.0 *. Nk_costs.hugepage_copy_cycles costs pressure size)
        in
        cycles := !cycles +. msg_cycles;
        (* advance virtual time and feed the bandwidth estimator, closing
           the Table 6 contention loop deterministically *)
        Sim.Engine.run engine ~until:(Sim.Engine.now engine +. (msg_cycles /. cycles_per_sec));
        Sim.Pressure.observe pressure ~bits:(8.0 *. float_of_int size))
  done;
  float_of_int !moved *. 8.0 /. (!cycles /. cycles_per_sec) /. 1e9

let run ?(quick = false) () =
  let iterations = if quick then 512 else 2048 in
  let rows =
    List.map
      (fun size ->
        let gbps = run_one ~size ~iterations in
        [ Format.asprintf "%a" Nkutil.Units.pp_bytes size; Printf.sprintf "%.1f" gbps ])
      sizes
  in
  Report.make ~id:"fig12" ~title:"Hugepage message copy throughput vs message size"
    ~headers:[ "message size"; "Gb/s" ]
    ~notes:
      [
        "deterministic microbenchmark: real copy path, cycle-cost model (Nk_costs + \
         Sim.Pressure bandwidth feedback) at 2.3 GHz — wall-clock timing lives in \
         perfbench/micro.ml";
        "paper: >100 Gb/s from 4KB messages; ~144 Gb/s at 8KB";
        "shape to check: rises with message size (per-message costs amortize), then \
         saturates at the modeled memory-bandwidth limit";
      ]
    rows
