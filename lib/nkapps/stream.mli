(** Bulk TCP streams (iperf-style) for the throughput experiments
    (Figs 13–16, 18–19, Table 4, Fig 10, Fig 21).

    A sink accepts connections and discards payload, timestamping progress;
    senders pump fixed-size messages through one or more connections, each
    driven by writable events. *)

type sink

type sink_stats = {
  mutable conns : int;
  mutable bytes : int;
  mutable first_byte : float;
  mutable last_byte : float;
}

val sink :
  engine:Sim.Engine.t -> api:Tcpstack.Socket_api.t -> addr:Addr.t ->
  (sink, Tcpstack.Types.err) result

val sink_stats : sink -> sink_stats

val sink_timeseries : sink -> Nkutil.Timeseries.t
(** Received bytes per 100 ms bin. *)

val sink_throughput_gbps : sink -> float
(** Goodput between first and last byte. *)

type sender

type sender_stats = { mutable sent : int; mutable active_streams : int; mutable failed : int }

val senders :
  engine:Sim.Engine.t ->
  api:Tcpstack.Socket_api.t ->
  dst:Addr.t ->
  streams:int ->
  msg_size:int ->
  ?start:float ->
  ?stop:float ->
  ?pace_gbps:float ->
  unit ->
  sender
(** Open [streams] connections at [start] (default now; the same
    convention as {!Loadgen.start}) and pump [msg_size] messages until
    [stop] (default: forever), then close. Returns at once. [pace_gbps]
    token-buckets the aggregate offered load (used to hold a fixed
    throughput level, e.g. the paper's Table 6). *)

val sender_stats : sender -> sender_stats
