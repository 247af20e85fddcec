(* NetKernel benchmark: simulator cost and simulated results.

     main.exe --workload <rpc-short|kv-bytes|bulk-stream|cluster-migrate>
              --seed <n> --seconds <s> --trace <0|1>

   --trace 0 repeats "build the world, simulate the workload's fixed load"
   rounds for --seconds of host CPU time and reports the end-to-end
   metrics. The first round is a warm-up; it also gives the peak heap of a
   fresh process and the simulated figures, which every later round must
   reproduce exactly (same digest). Host-time figures are medians over the
   later rounds of the round's time divided by a Calib reference pass timed
   around it, scaled to Calib.nominal_s (see calib.ml for why).

   --trace 1 runs one untraced round, then one traced round (Nkspan spans
   and cycle profiler on, socket APIs wrapped with host timers, Testbed.run
   sliced into 1 ms steps to sample the engine's pending set), then the
   micro loops, and reports the per-layer metrics. The traced digest must
   equal the untraced one: neither tracing nor slicing may perturb the
   simulation.

   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module Wl = Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: rpc-short kv-bytes bulk-stream cluster-migrate";
  exit 2

let args () =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let spec =
    match List.find_opt (fun s -> s.Wl.name = get "workload") Wl.all with
    | Some s -> s
    | None -> usage ()
  in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  (spec, int "seed", float_of_int (int "seconds"), trace)

(* ---- one round ----------------------------------------------------------- *)

type round = {
  ref_before : float;  (** host CPU seconds of a Calib pass on a compacted heap before it *)
  setup_s : float;
  run_s : float;  (** host CPU seconds inside Testbed.run *)
  outcome : Wl.outcome;
  events : int;
  alloc_words : float;  (** minor + major - promoted, during the run *)
  serving_cycles : float;
  digest : string;
  layers : (string * string * float) list;
  stage_sum_ok : bool;  (** traced: span stage means sum to the end-to-end mean *)
}

let plain = { Wl.span_every = 0; server_api = Fun.id; client_api = Fun.id }

(* Canonical dump of everything the simulation produced that the benchmark
   reports on. Hex floats keep every bit. *)
let digest (w : Wl.world) (o : Wl.outcome) ~events =
  let b = Buffer.create 4096 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  Buffer.add_string b
    (Printf.sprintf "events=%d attempted=%d completed=%d failed=%d;" events o.Wl.attempted
       o.Wl.completed o.Wl.failed);
  List.iter f [ o.Wl.ops; o.Wl.payload_bytes; o.Wl.window; o.Wl.relay_stall ];
  Array.iter f o.Wl.latencies;
  let c = w.Wl.cores () in
  List.iter (fun cores -> f (Layers.cycles cores)) [ c.Wl.vm; c.Wl.nsm; c.Wl.ce; c.Wl.client ];
  List.iter (fun mon -> Buffer.add_string b (Nkmon.Registry.to_json (Nkmon.registry mon))) w.Wl.mons;
  let nq, by = w.Wl.spine () in
  Buffer.add_string b (Printf.sprintf "spine=%d,%d" nq by);
  Digest.to_hex (Digest.string (Buffer.contents b))

let slice = 1e-3

(* Run to [until] in fixed simulated steps, sampling the engine's pending
   set and the hugepage bytes in use between steps. *)
let run_sliced (w : Wl.world) =
  let engine = w.Wl.tb.Nkcore.Testbed.engine in
  let pending = ref 0 and hp = ref 0.0 in
  let rec go t =
    pending := max !pending (Sim.Engine.pending engine);
    hp := Float.max !hp (Layers.gauge_sum w "hugepages" "bytes_in_use");
    if Sim.Engine.pending engine > 0 && t < w.Wl.until then begin
      let next = Float.min w.Wl.until (t +. slice) in
      Nkcore.Testbed.run w.Wl.tb ~until:next;
      go next
    end
  in
  go (Nkcore.Testbed.now w.Wl.tb);
  (!pending, !hp)

(* Set-up is a fraction of a millisecond, so a timed round sets up [reps]
   worlds, each from a compacted heap, keeps the last and reports the
   median set-up time. *)
let set_up build env ~reps =
  let rec go k times =
    Gc.compact ();
    let t0 = Sys.time () in
    let w = build env in
    let times = (Sys.time () -. t0) :: times in
    if k = 1 then (w, Nkutil.Stats.median (Array.of_list times)) else go (k - 1) times
  in
  go reps []

(* [calib] times a reference pass and sets up five times; the warm-up round
   does neither, so that its peak heap is the program's alone. *)
let round ~(build : Wl.env -> Wl.world) ~env ~traced ~calib =
  let ref_before =
    if calib then begin
      Gc.compact ();
      Calib.time ()
    end
    else Float.nan
  in
  let w, setup_s = set_up build env ~reps:(if calib then 5 else 1) in
  (match (traced, w.Wl.spans) with
  | true, p :: _ -> Nkspan.enable_profiler p w.Wl.tb.Nkcore.Testbed.engine
  | _ -> ());
  let g0 = Gc.quick_stat () in
  let t1 = Sys.time () in
  let sliced =
    if traced then Some (run_sliced w)
    else begin
      Nkcore.Testbed.run w.Wl.tb ~until:w.Wl.until;
      None
    end
  in
  let run_s = Sys.time () -. t1 in
  let g1 = Gc.quick_stat () in
  let o = w.Wl.finish () in
  let events = Sim.Engine.events_executed w.Wl.tb.Nkcore.Testbed.engine in
  let alloc_words =
    g1.Gc.minor_words -. g0.Gc.minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  let layers, stage_sum_ok =
    match sliced with
    | None -> (Layers.counted w o, true)
    | Some (pending, hp) ->
        let spans, sums_match = Layers.span_stages w in
        ( [
            ("sim.pending_peak", "count", float_of_int pending);
            ("hugepages.bytes_in_use_peak", "bytes", hp);
          ]
          @ spans @ Layers.profile w o,
          sums_match )
  in
  {
    ref_before;
    setup_s;
    run_s;
    outcome = o;
    events;
    alloc_words;
    serving_cycles = Layers.serving_cycles w;
    digest = digest w o ~events;
    layers;
    stage_sum_ok;
  }

(* ---- metrics ------------------------------------------------------------- *)

(* Each round's reference speed is the mean of the passes just before and
   just after it (the next round's, or a final one), both timed on a
   compacted heap so the program's heap never slows the reference. *)
let with_refs rounds =
  Gc.compact ();
  let last = Calib.time () in
  let rec go = function
    | r :: (next :: _ as rest) -> (r, (r.ref_before +. next.ref_before) /. 2.0) :: go rest
    | [ r ] -> [ (r, (r.ref_before +. last) /. 2.0) ]
    | [] -> []
  in
  go rounds

(* Host seconds at the reference host speed. *)
let at_ref ref_s secs = secs /. ref_s *. Calib.nominal_s

let error_rate (o : Wl.outcome) = float_of_int o.Wl.failed /. float_of_int (max 1 o.Wl.attempted)

let checks_ok (o : Wl.outcome) = List.for_all snd o.Wl.checks

let print_checks (o : Wl.outcome) =
  List.iter
    (fun (name, ok) -> Printf.printf "check  %-52s %s\n" name (if ok then "ok" else "FAILED"))
    o.Wl.checks

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_table rows =
  List.iter (fun (name, unit, v) -> Printf.printf "%-34s %16.6g %s\n" name v unit) rows

let untraced spec ~seed ~seconds =
  let build = spec.Wl.prepare ~seed in
  let start = Sys.time () in
  let first = round ~build ~env:plain ~traced:false ~calib:false in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  (* At least three timed rounds after the warm-up, then as many as fit. *)
  let rec more acc k =
    if k >= 3 && Sys.time () -. start >= seconds then List.rev acc
    else more (round ~build ~env:plain ~traced:false ~calib:true :: acc) (k + 1)
  in
  let timed = more [] 0 in
  let o = first.outcome in
  let timed_refs = List.tl (with_refs (first :: timed)) in
  let med f = Nkutil.Stats.median (Array.of_list (List.map f timed_refs)) in
  let ops = o.Wl.ops in
  let lat = o.Wl.latencies in
  let metrics =
    [
      ("setup_s", "s", med (fun (r, ref_s) -> at_ref ref_s r.setup_s));
      ("run_s", "s", med (fun (r, ref_s) -> at_ref ref_s r.run_s));
      ("host_us_per_op", "us", med (fun (r, ref_s) -> at_ref ref_s r.run_s *. 1e6 /. r.outcome.Wl.ops));
      ("events_per_op", "events/op", float_of_int first.events /. ops);
      ("alloc_words_per_op", "words/op", first.alloc_words /. ops);
      ("peak_heap_mb", "MB", peak_heap_mb);
      ("sim_ops_per_s", "1/s", ops /. o.Wl.window);
      ("sim_goodput_gbps", "Gb/s", o.Wl.payload_bytes *. 8.0 /. o.Wl.window /. 1e9);
      ("sim_p50_us", "us", Nkutil.Stats.percentile lat 50.0 *. 1e6);
      ("sim_p999_us", "us", Nkutil.Stats.percentile lat 99.9 *. 1e6);
      ("sim_cycles_per_op", "cycles/op", first.serving_cycles /. ops);
    ]
  in
  let rounds = first :: timed in
  let deterministic = List.for_all (fun r -> r.digest = first.digest) rounds in
  Printf.printf "workload %s  seed %d  rounds %d (1 warm-up)\n" spec.Wl.name seed
    (List.length rounds);
  Printf.printf "digest %s  %s\n" first.digest
    (if deterministic then "(identical in every round)" else "(MISMATCH between rounds)");
  Printf.printf "ops %.0f  latency samples %d  error_rate %g\n" ops (Array.length lat)
    (error_rate o);
  let by_round f = String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (f r)) rounds) in
  Printf.printf "measured run_s by round: %s\n" (by_round (fun r -> r.run_s));
  Printf.printf "reference pass by round: %s\n" (by_round (fun r -> r.ref_before));
  Printf.printf "measured setup_s by round: %s\n" (by_round (fun r -> r.setup_s *. 1e3));
  print_checks o;
  print_table (metrics @ [ ("error_rate", "share", error_rate o) ]);
  let attempted = List.fold_left (fun acc r -> acc + r.outcome.Wl.attempted) 0 rounds in
  let failed = List.fold_left (fun acc r -> acc + r.outcome.Wl.failed) 0 rounds in
  json_line
    ~correct:(deterministic && List.for_all (fun r -> checks_ok r.outcome) rounds)
    ~attempted ~failed metrics

let traced spec ~seed ~seconds =
  let build = spec.Wl.prepare ~seed in
  let start = Obs.now_ns () in
  let base = round ~build ~env:plain ~traced:false ~calib:true in
  let server = Obs.host_acc () and client = Obs.host_acc () in
  let env =
    {
      Wl.span_every = 16;
      server_api = Obs.timed_api server;
      client_api = Obs.timed_api client;
    }
  in
  let tr = round ~build ~env ~traced:true ~calib:true in
  let base_ref, tr_ref =
    match with_refs [ base; tr ] with
    | [ (_, a); (_, b) ] -> (a, b)
    | _ -> assert false
  in
  let ops = tr.outcome.Wl.ops in
  let spent = float_of_int (Obs.now_ns () - start) /. 1e9 in
  let micro = Micro.run ~budget:(Float.max 1.0 (seconds -. spent)) in
  let same = tr.digest = base.digest in
  let stage_sum_ok = tr.stage_sum_ok in
  let metrics =
    base.layers
    @ [
        ( "sim.host_ns_per_event",
          "ns",
          at_ref base_ref base.run_s *. 1e9 /. float_of_int base.events );
        ("host.guestlib_api_ns", "ns/op", at_ref tr_ref (float_of_int server.Obs.self_ns) /. ops);
        ("host.client_stack_api_ns", "ns/op", at_ref tr_ref (float_of_int client.Obs.self_ns) /. ops);
        ("trace.overhead", "ratio", at_ref tr_ref tr.run_s /. at_ref base_ref base.run_s);
      ]
    @ tr.layers
    @ List.map (fun ((c : Micro.case), ns) -> (c.Micro.name, "ns", ns)) micro
  in
  Printf.printf "workload %s  seed %d  traced\n" spec.Wl.name seed;
  Printf.printf "digest untraced %s  traced+sliced %s  %s\n" base.digest tr.digest
    (if same then "(identical)" else "(MISMATCH)");
  Printf.printf "span stage means sum to the end-to-end mean: %b\n" stage_sum_ok;
  print_checks base.outcome;
  List.iter
    (fun ((c : Micro.case), ns) ->
      Printf.printf "micro  %-32s %-18s %-16s %10.1f ns\n" c.Micro.name c.Micro.modname
        c.Micro.workload ns)
    micro;
  print_table metrics;
  json_line
    ~correct:(same && stage_sum_ok && checks_ok base.outcome && checks_ok tr.outcome)
    ~attempted:(base.outcome.Wl.attempted + tr.outcome.Wl.attempted)
    ~failed:(base.outcome.Wl.failed + tr.outcome.Wl.failed)
    metrics

let () =
  let spec, seed, seconds, trace = args () in
  if trace then traced spec ~seed ~seconds else untraced spec ~seed ~seconds
