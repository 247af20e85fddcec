(* Per-layer readings, all taken after a run from the world's public
   accessors: Nkmon registry rows, Sim.Cpu busy cycles, simnet links,
   Nkfabric stats, Nkspan breakdowns and the cycle profiler. *)

open Nkcore
module R = Nkmon.Registry
module Wl = Workloads

(* Counter totals over every registry and instance, by component/metric. *)
let counters (w : Wl.world) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun mon ->
      List.iter
        (fun (e : R.entry) ->
          match e.R.value with
          | R.Counter n ->
              let key = (e.R.component, e.R.metric) in
              Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))
          | R.Gauge _ | R.Histogram _ | R.Timeseries _ -> ())
        (R.entries (Nkmon.registry mon)))
    w.Wl.mons;
  fun component metric -> Option.value ~default:0 (Hashtbl.find_opt tbl (component, metric))

(* Sum of a gauge over every registry and instance (evaluated now). *)
let gauge_sum (w : Wl.world) component metric =
  List.fold_left
    (fun acc mon ->
      List.fold_left
        (fun acc (e : R.entry) ->
          match e.R.value with
          | R.Gauge g when e.R.component = component && e.R.metric = metric -> acc +. g
          | _ -> acc)
        acc
        (R.entries (Nkmon.registry mon)))
    0.0 w.Wl.mons

(* Every fabric link touching the world's hosts: each NIC's uplink and the
   switch port down to it. *)
let links (w : Wl.world) =
  List.concat_map
    (fun h ->
      let nic = Host.nic h in
      Option.to_list (Nic.egress nic) @ Option.to_list (Fabric.port_to w.Wl.tb.Testbed.fabric nic))
    w.Wl.hosts

let cycles cores = List.fold_left (fun acc c -> acc +. Sim.Cpu.busy_cycles c) 0.0 cores

let util cores ~window =
  match cores with
  | [] -> 0.0
  | c :: _ ->
      cycles cores /. (Sim.Cpu.freq_hz c *. float_of_int (List.length cores) *. window)

(* Simulated busy cycles of the serving side: VM, NSM and CoreEngine. *)
let serving_cycles (w : Wl.world) =
  let c = w.Wl.cores () in
  cycles c.Wl.vm +. cycles c.Wl.nsm +. cycles c.Wl.ce

(* Counter-derived layer metrics of an untraced run: (name, unit, value). *)
let counted (w : Wl.world) (o : Wl.outcome) =
  let ctr = counters w in
  let per_op v = float_of_int v /. o.Wl.ops in
  let c = w.Wl.cores () in
  let links = links w in
  let link_sum f = List.fold_left (fun acc l -> acc + f l) 0 links in
  let spine_nqes, spine_bytes = w.Wl.spine () in
  let events = Sim.Engine.events_executed w.Wl.tb.Testbed.engine in
  [
    ("sim.events", "count", float_of_int events);
    ("cpu.vm_cycles_per_op", "cycles/op", cycles c.Wl.vm /. o.Wl.ops);
    ("cpu.nsm_cycles_per_op", "cycles/op", cycles c.Wl.nsm /. o.Wl.ops);
    ("cpu.ce_cycles_per_op", "cycles/op", cycles c.Wl.ce /. o.Wl.ops);
    ("cpu.client_cycles_per_op", "cycles/op", cycles c.Wl.client /. o.Wl.ops);
    ("cpu.nsm_util", "share", util c.Wl.nsm ~window:o.Wl.window);
    ("cpu.ce_util", "share", util c.Wl.ce ~window:o.Wl.window);
    ("guestlib.nqes_per_op", "NQEs/op", per_op (ctr "guestlib" "nqes_tx" + ctr "guestlib" "nqes_rx"));
    ("guestlib.send_eagain", "count", float_of_int (ctr "guestlib" "send_eagain"));
    ("nk_device.ring_full", "count", float_of_int (ctr "nk_device" "ring_full"));
    ("coreengine.switched_per_op", "NQEs/op", per_op (ctr "coreengine" "switched"));
    ( "coreengine.nqes_per_sweep",
      "NQEs/sweep",
      float_of_int (ctr "coreengine" "switched")
      /. float_of_int (max 1 (ctr "coreengine" "sweeps")) );
    ( "coreengine.deferred",
      "count",
      float_of_int (ctr "coreengine" "rate_deferred" + ctr "coreengine" "ring_deferred") );
    ("coreengine.dropped", "count", float_of_int (ctr "coreengine" "dropped"));
    ( "servicelib.nqes_per_op",
      "NQEs/op",
      per_op (ctr "servicelib" "nqes_rx" + ctr "servicelib" "nqes_tx") );
    ("tcpstack.segs_per_op", "segs/op", per_op (ctr "tcpstack" "segs_tx" + ctr "tcpstack" "segs_rx"));
    ("tcpstack.conns_per_op", "conns/op", per_op (ctr "tcpstack" "conns_established"));
    ( "tcpstack.failures",
      "count",
      float_of_int
        (ctr "tcpstack" "syn_drops" + ctr "tcpstack" "rx_ring_drops" + ctr "tcpstack" "rst_tx"
       + ctr "tcpstack" "conns_failed") );
    ("simnet.link_segments_per_op", "segs/op", per_op (link_sum Link.segments_sent));
    ("simnet.link_drops", "count", float_of_int (link_sum Link.drops));
    ("simnet.ecn_marks", "count", float_of_int (link_sum Link.ecn_marks));
    ("nkfabric.spine_nqes_per_op", "NQEs/op", per_op spine_nqes);
    ("nkfabric.spine_bytes", "bytes", float_of_int spine_bytes);
    ("nkfabric.relay_stall_ms", "ms", o.Wl.relay_stall *. 1e3);
  ]

(* ---- traced run ---------------------------------------------------------- *)

(* Nkspan stage means (us) aggregated over every recorder, weighted by
   spans, plus whether they sum to the end-to-end mean. *)
let span_stages (w : Wl.world) =
  let module H = Nkutil.Histogram in
  let totals = Hashtbl.create 8 in
  let spans = ref 0 and e2e = ref 0.0 in
  List.iter
    (fun rec_ ->
      let b = Nkspan.breakdown rec_ in
      spans := !spans + b.Nkspan.b_spans;
      e2e := !e2e +. (H.mean b.Nkspan.b_e2e *. float_of_int (H.count b.Nkspan.b_e2e));
      List.iter
        (fun (stage, h) ->
          let v = H.mean h *. float_of_int (H.count h) in
          Hashtbl.replace totals stage (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals stage)))
        b.Nkspan.b_stages)
    w.Wl.spans;
  let n = float_of_int (max 1 !spans) in
  let stage_sum = Hashtbl.fold (fun _ v acc -> acc +. v) totals 0.0 in
  let sums_match = Float.abs (stage_sum -. !e2e) <= 1e-9 +. (1e-6 *. !e2e) && !spans > 0 in
  let rows =
    List.map
      (fun stage ->
        ( Printf.sprintf "span.%s_us" stage,
          "us",
          Option.value ~default:0.0 (Hashtbl.find_opt totals stage) /. n *. 1e6 ))
      Nkspan.stage_order
    @ [ ("span.e2e_us", "us", !e2e /. n *. 1e6); ("span.samples", "count", float_of_int !spans) ]
  in
  (rows, sums_match)

let profile_layers = [ "guestlib"; "coreengine"; "servicelib"; "nsm"; "vm"; "client"; "other" ]

(* Cycle-profiler cells grouped by benchmark layer (components named after
   the world's VMs, NSMs and CoreEngines), per op, plus the unframed share. *)
let profile (w : Wl.world) (o : Wl.outcome) =
  let roles = w.Wl.roles () in
  let cells = match w.Wl.spans with p :: _ -> Nkspan.profile_table p | [] -> [] in
  let by_layer = Hashtbl.create 8 in
  let total = ref 0.0 and unframed = ref 0.0 in
  List.iter
    (fun (c : Nkspan.cell) ->
      let layer = Option.value ~default:"other" (List.assoc_opt c.Nkspan.p_comp roles) in
      Hashtbl.replace by_layer layer
        (c.Nkspan.p_cycles +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer));
      total := !total +. c.Nkspan.p_cycles;
      if c.Nkspan.p_stage = "(unframed)" then unframed := !unframed +. c.Nkspan.p_cycles)
    cells;
  List.map
    (fun layer ->
      ( Printf.sprintf "profile.%s_cycles_per_op" layer,
        "cycles/op",
        Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer) /. o.Wl.ops ))
    profile_layers
  @ [ ("profile.unframed_share", "share", if !total > 0.0 then !unframed /. !total else 0.0) ]
