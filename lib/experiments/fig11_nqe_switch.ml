(* Fig 11: CoreEngine switching throughput (single core) vs batch size.

   This drives the REAL mechanism — the actual NQE codec and the actual
   lockless SPSC rings through the CoreEngine's data movement: pop a batch
   from the source ring, decode the header, look up the connection table,
   copy into the destination ring — but charges every modeled operation its
   cycle cost from the calibrated NetKernel cost model (Nk_costs) instead of
   timing the host with a wall clock. Reported NQEs/s is therefore a pure
   function of the cost model at the paper's 2.3 GHz core clock and is
   bit-identical across runs and machines (nkscope rule T1 forbids
   [Unix.gettimeofday] under lib/); wall-clock measurement of the same
   primitives lives in perfbench/micro.ml where it belongs.

   The paper measures ~8M NQEs/s unbatched and 41.4M / 65.9M / up to 198M
   NQEs/s with batches of 4 / 8 / larger on a 2.3 GHz Xeon core; the shape
   (batching amortizes the per-iteration poll sweep across every registered
   device's queues) is reproduced from the same mechanism. *)

open Nkcore

let batch_sizes = [ 1; 4; 8; 16; 32; 64 ]

(* The paper's testbed core clock: converts modeled cycles to seconds. *)
let cycles_per_sec = 2.3e9

let run_one ~batch ~iterations =
  let costs = Nk_costs.default in
  let src = Nkutil.Spsc_ring.create ~capacity:4096 in
  let dst = Nkutil.Spsc_ring.create ~capacity:4096 in
  (* CoreEngine sweeps every registered device's queues each polling
     iteration; most are empty. Smaller batches pay that sweep more often —
     this is exactly what the paper's Fig 11 batching amortizes. *)
  let idle_queues = Array.init 32 (fun _ -> Nkutil.Spsc_ring.create ~capacity:64) in
  let poll_idle () =
    Array.iter (fun q -> ignore (Nkutil.Spsc_ring.pop q)) idle_queues
  in
  let sweep_cycles = costs.Nk_costs.ce_poll_iter *. float_of_int (Array.length idle_queues + 1) in
  let per_nqe_cycles = costs.Nk_costs.nqe_decode +. costs.Nk_costs.ce_switch in
  let table = Hashtbl.create 1024 in
  Hashtbl.replace table (1, 42) (0, 0);
  let proto =
    Nqe.encode
      (Nqe.make ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:42 ~data_ptr:4096 ~size:8192 ())
  in
  (* Pre-fill a pool of independent 32-byte NQEs (CoreEngine never reuses a
     buffer before the consumer drained it). *)
  let pool = Array.init 4096 (fun _ -> Bytes.copy proto) in
  let switched = ref 0 in
  let cycles = ref 0.0 in
  for i = 0 to iterations - 1 do
    poll_idle ();
    cycles := !cycles +. sweep_cycles;
    (* producer side: enqueue a batch *)
    for j = 0 to batch - 1 do
      ignore (Nkutil.Spsc_ring.push src pool.(((i * batch) + j) land 4095))
    done;
    (* CoreEngine: pop batch, decode, look up, copy into destination *)
    let rec loop n =
      if n < batch then
        match Nkutil.Spsc_ring.pop src with
        | None -> ()
        | Some raw ->
            (match Nqe.decode raw with
            | Ok nqe ->
                (match Hashtbl.find_opt table (nqe.Nqe.vm_id, nqe.Nqe.sock) with
                | Some _ -> ()
                | None -> Hashtbl.replace table (nqe.Nqe.vm_id, nqe.Nqe.sock) (0, 0));
                ignore (Nkutil.Spsc_ring.push dst raw);
                cycles := !cycles +. per_nqe_cycles;
                incr switched
            | Error _ -> ());
            loop (n + 1)
    in
    loop 0;
    (* consumer side: drain the destination *)
    let rec drain () =
      match Nkutil.Spsc_ring.pop dst with Some _ -> drain () | None -> ()
    in
    drain ()
  done;
  float_of_int !switched /. (!cycles /. cycles_per_sec)

let run ?(quick = false) () =
  let iterations = if quick then 20_000 else 100_000 in
  let rows =
    List.map
      (fun batch ->
        let rate = run_one ~batch ~iterations:(iterations / batch) in
        [ string_of_int batch; Printf.sprintf "%.1fM" (rate /. 1e6) ])
      batch_sizes
  in
  Report.make ~id:"fig11" ~title:"CoreEngine NQE switching throughput vs batch size"
    ~headers:[ "batch size"; "NQEs/s" ]
    ~notes:
      [
        "deterministic microbenchmark: real codec + rings, cycle-cost model (Nk_costs) \
         at 2.3 GHz — wall-clock timing lives in perfbench/micro.ml";
        "paper, 2.3GHz Xeon core: ~8M/s unbatched; 41.4M/s at batch 4; 65.9M/s at 8; up \
         to 198M/s";
        "shape to check: throughput grows with batch size then saturates";
      ]
    rows
