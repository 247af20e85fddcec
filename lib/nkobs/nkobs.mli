(** Nkobs: the cluster-wide observability plane (DESIGN.md par.17).

    Nkmon and Nkspan are per-host foundations: every component on a host
    reports into that host's registry, trace ring and span recorder.
    Nkobs is the layer above — one [Nkobs.t] watches any number of hosts
    and turns their per-host state into an operator view:

    - {e metric federation}: walk every source registry and produce one
      merged, host-tagged snapshot ({!to_rows}/{!to_csv}/{!to_json}) and
      one merged trace ordered by virtual time ({!merged_trace_csv}) —
      what [nk stats --cluster] and [nk trace --cluster] print;
    - {e per-tenant SLO accounting}: rolling windows over each tenant's
      cumulative request counts and latency histogram, evaluated against
      declared targets (p99 ceiling, error-rate ceiling) on virtual-time
      ticks;
    - {e an alert stream}: SLO breaches and recoveries, trace-ring
      overwrites ([dropped_events]), hugepage and CoreEngine deferred-queue
      pressure, and spine-link saturation become typed {!alert}s, recorded
      as [Custom] events into the plane's own Nkmon trace {e and} fanned
      out to {!on_alert} subscribers — which is how an SLO breach triggers
      Nkctl verbs (autoscale, handover, [switch_protocol]);
    - {e a deterministic flight recorder}: when an alert fires, the most
      recent trace events of every source host are dumped into one
      host-tagged, virtual-time-ordered snapshot ({!dumps}). Same seed,
      same bytes — the dynamic counterpart of nkscope, and the
      landing pad for the chaos harness (ROADMAP item 5).

    Everything here observes virtual time only and never charges simulated
    cycles: attaching the plane must not perturb the world it watches.
    The plane samples state only on its own ticks, so with identical seeds
    the full alert log, SLO history and every flight dump are
    byte-identical run to run. *)

(** {1 Alerts} *)

type alert =
  | Slo_breach of {
      tenant : string;
      metric : string;  (** ["p99"] or ["error_rate"] *)
      value : float;
      target : float;
    }
  | Slo_recovered of { tenant : string }
  | Dropped_events of { host : string; dropped : int }
      (** a source's trace ring started overwriting events; [dropped] is the
          count lost over the triggering tick. Edge-triggered like the
          pressure rules: a ring that keeps dropping stays quiet until a
          tick passes with no new drops, which re-arms the rule. *)
  | Hugepage_pressure of {
      host : string;
      region : string;
      used_frac : float;  (** bytes_in_use / capacity_bytes *)
    }
  | Ring_pressure of {
      host : string;
      instance : string;  (** CoreEngine shard instance *)
      depth : float;  (** parked NQEs in its deferred queues *)
    }
  | Spine_saturation of {
      host : string;  (** the source carrying the spine metrics *)
      utilization : float;  (** shipped bytes this tick vs link capacity *)
    }

val alert_type : alert -> string

val alert_detail : alert -> string
(** Deterministic one-line rendering ([key=value] pairs) — the [detail]
    field of the [Custom] trace event each alert records. *)

(** {1 Thresholds and SLO targets} *)

type rules = {
  hugepage_used_frac : float;  (** alert at/above this fill fraction (default 0.9) *)
  ring_depth : float;  (** alert at/above this parked-NQE depth (default 64) *)
  spine_utilization : float;  (** alert at/above this link utilization (default 0.8) *)
}

val default_rules : rules

type slo_target = {
  latency_p99 : float option;  (** ceiling on windowed p99, seconds *)
  max_error_rate : float;  (** ceiling on windowed errors/requests *)
  min_requests : int;
      (** windows with fewer requests are not evaluated (no flapping on
          idle tenants) *)
}

type probe = {
  p_requests : int;  (** cumulative completed requests *)
  p_errors : int;  (** cumulative errors *)
  p_latency : Nkutil.Histogram.t;  (** cumulative latency histogram *)
}
(** What a tenant probe reports: cumulative totals since time zero (e.g.
    straight from [Loadgen.results]). The plane snapshots it every tick
    and evaluates the SLO on the {e window} between snapshots
    ({!Nkutil.Histogram.diff}). *)

type slo_status = {
  st_tenant : string;
  st_ok : bool;  (** false while in breach *)
  st_windows : int;  (** evaluated (>= min_requests) windows so far *)
  st_breaches : int;  (** windows that opened or extended a breach *)
  st_last_p99 : float;  (** windowed p99 of the last evaluated window, seconds *)
  st_last_error_rate : float;
  st_last_requests : int;  (** request count of the last evaluated window *)
}

(** {1 The plane} *)

type t

val create :
  ?period:float ->
  ?rules:rules ->
  ?flight_depth:int ->
  ?max_dumps:int ->
  engine:Sim.Engine.t ->
  mon:Nkmon.t ->
  unit ->
  t
(** [mon] is the plane's own observability handle: alert events are
    recorded into its trace and the plane's counters
    ([nkobs/plane/ticks], [nkobs/plane/alerts]) into its registry —
    normally the cluster-scope [tb.mon], which {!add_source} then also
    federates as a source. [period] (default 10 ms) is the evaluation
    tick; [flight_depth] (default 64) bounds the per-host event count in
    a flight dump; [max_dumps] (default 8) bounds retained dumps (later
    alerts still count and fan out, they just stop dumping). *)

val add_source : t -> host:string -> Nkmon.t -> unit
(** Federate a host's registry + trace under the [host] tag. Sources are
    walked in add order; adding the same tag twice raises. *)

val of_fabric :
  ?period:float -> ?rules:rules -> ?flight_depth:int -> ?max_dumps:int -> Nkfabric.t -> t
(** The standard cluster wiring: the testbed's [mon] becomes the plane
    handle and the ["cluster"] source (spine + migration metrics, plain
    hosts outside the cluster), and every node is added as a source under
    its host name, in node order. *)

val sources : t -> (string * Nkmon.t) list
(** In add order. *)

val engine : t -> Sim.Engine.t

(** {1 SLO accounting} *)

val add_tenant : t -> name:string -> target:slo_target -> probe:(unit -> probe) -> unit
(** Register a tenant; evaluated every tick, in add order. Adding the
    same name twice raises. *)

val slo_status : t -> slo_status list
(** In tenant add order. *)

(** {1 The alert stream} *)

val on_alert : t -> (time:float -> alert -> unit) -> unit
(** Subscribe; callbacks run in subscription order, after the alert has
    been recorded in the trace and (possibly) captured a flight dump.
    This is the hook a control loop (Nkctl) closes the loop with. *)

val alerts : t -> (float * alert) list
(** Every alert raised so far, oldest first. *)

val alert_count : t -> int

(** {1 Ticking} *)

val start : t -> unit
(** Schedule the first tick [period] from now and keep ticking every
    [period] until {!stop}. *)

val stop : t -> unit

val tick : t -> unit
(** One immediate evaluation pass (pressure rules, then SLOs), outside
    the periodic schedule — callers with their own cadence use this. *)

val ticks : t -> int

(** {1 Metric federation} *)

val row_headers : string list
(** ["host"; "component"; "instance"; "metric"; "value"]. *)

val to_rows : t -> string list list
(** One row per metric of every source, host tag first — sources in add
    order, each source's rows in its registry's sorted order. *)

val to_csv : t -> string

val to_json : t -> string
(** [{"hosts":[...],"metrics":[...]}], deterministic; each metric object
    carries its [host] tag, and each host object its trace
    [dropped_events] count so truncation is visible in the export
    itself. *)

val merged_trace : t -> (string * Nkmon.Trace.record) list
(** All sources' retained trace events, host-tagged and merged in
    virtual-time order (ties: source add order, then sequence number). *)

val merged_trace_csv : t -> string
(** Header [host,seq,time,type,args]; a trailing comment warns when any
    source dropped events. *)

val merged_trace_json : t -> string
(** [{"events":[...],"dropped":[...]}], same order as {!merged_trace};
    every event object carries its [host] tag and the [dropped] array the
    per-source [dropped_events] counts. *)

(** {1 The flight recorder} *)

val dumps : t -> (float * alert * string) list
(** Retained flight dumps, oldest first: alert virtual time, the alert,
    and the snapshot — the last [flight_depth] trace events of every
    source at the moment the alert fired, host-tagged and merged in
    virtual-time order. Byte-identical across same-seed runs. *)

val dump_count : t -> int
(** Alerts that requested a dump (including those past [max_dumps]). *)
