(* The four benchmark workloads. Each builds its world only through the
   public constructors (Experiments.Worlds, Testbed, Nkfabric, Nsm, Vm),
   drives it with Nkapps applications in a closed loop, and after the run
   reports what the applications saw plus the checks on their outputs.

   Every input a workload draws (client start offsets, keys, values) comes
   from the benchmark seed, which is also the testbed's root seed. *)

open Nkcore
module W = Experiments.Worlds
module Api = Tcpstack.Socket_api
module Rng = Nkutil.Rng

type outcome = {
  attempted : int;
  completed : int;
  failed : int;  (** failed ops plus failed output checks *)
  checks : (string * bool) list;
  ops : float;  (** completed ops (a request, a KV command, a 64 KB message) *)
  payload_bytes : float;  (** useful payload moved by those ops *)
  window : float;  (** simulated seconds from the first op to the last completion *)
  latencies : float array;  (** simulated per-op latency samples (seconds) *)
  relay_stall : float;  (** cluster-migrate only: cut to relayed VMs' recovery (s) *)
}

type cores = {
  vm : Sim.Cpu.t list;  (** serving VMs' vCPUs *)
  nsm : Sim.Cpu.t list;  (** every NSM that served them *)
  ce : Sim.Cpu.t list;  (** CoreEngine cores of the serving hosts *)
  client : Sim.Cpu.t list;  (** the remote load generator / peer *)
}

type world = {
  tb : Testbed.t;
  until : float;  (** simulated-time limit; the run ends earlier once idle *)
  mons : Nkmon.t list;  (** every registry the world's components report to *)
  spans : Nkspan.t list;  (** every span recorder (the first gets the profiler) *)
  hosts : Host.t list;
  cores : unit -> cores;
  roles : unit -> (string * string) list;  (** profiler component -> benchmark layer *)
  spine : unit -> int * int;  (** NQEs and bytes carried by the Nkfabric spine *)
  finish : unit -> outcome;
}

(* How main.ml hands socket APIs to the applications: the traced run
   wraps them with host-time accounting, the untraced run passes them on. *)
type env = { span_every : int; server_api : Api.t -> Api.t; client_api : Api.t -> Api.t }

let get_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Tcpstack.Types.err_to_string e))

let set_cores s = Array.to_list (Sim.Cpu.Set.cores s)

(* Profiler components are instance names: GuestLib frames are "vm<id>"
   and ServiceLib frames "nsm<id>", while stack frames and unframed cycles
   carry the VM's or NSM's own name. *)
let roles_of_vm vm = [ (Vm.name vm, "vm"); (Printf.sprintf "vm%d" (Vm.vm_id vm), "guestlib") ]

let roles_of_nsm nsm = [ (Nsm.name nsm, "nsm"); (Printf.sprintf "nsm%d" (Nsm.id nsm), "servicelib") ]

(* CoreEngine frames are named "<host>.ce"; its unframed cycles fall back
   to the core name, whose component is "ce" or "coreengine". *)
let roles_of_host h =
  [ (Host.name h ^ ".ce", "coreengine"); ("ce", "coreengine"); ("coreengine", "coreengine") ]

(* ---- single-host worlds (Experiments.Worlds.netkernel) ------------------ *)

let nk_world ~seed env =
  W.netkernel
    ~config:(W.Config.with_span_every env.span_every (W.Config.with_seed seed W.Config.default))
    ()

let single_host w ~until ~finish =
  {
    tb = w.W.tb;
    until;
    mons = [ w.W.tb.Testbed.mon ];
    spans = [ w.W.tb.Testbed.spans ];
    hosts = [ w.W.server_host; w.W.client_host ];
    cores =
      (fun () ->
        {
          vm = set_cores (Vm.cores w.W.server_vm);
          nsm = List.concat_map (fun n -> set_cores (Nsm.cores n)) w.W.nsms;
          ce = Array.to_list (Host.ce_cores w.W.server_host);
          client = set_cores (Vm.cores w.W.client_vm);
        });
    roles =
      (fun () ->
      roles_of_vm w.W.server_vm
      @ List.concat_map roles_of_nsm w.W.nsms
      @ roles_of_host w.W.server_host
      @ [ (Vm.name w.W.client_vm, "client") ]);
    spine = (fun () -> (0, 0));
    finish;
  }

(* Client start offsets: each virtual client group begins at 1 ms (the
   listeners are up by then) plus a seeded offset. *)
let start_offset rng = 1e-3 +. Rng.float_range rng 0.0 400e-6

let loadgen_results lgs =
  List.map
    (fun lg ->
      match !lg with
      | None -> failwith "loadgen never started"
      | Some lg -> (lg, Nkapps.Loadgen.results lg))
    lgs

let start_loadgen ~engine ~api ~at cfg =
  let lg = ref None in
  ignore
    (Sim.Engine.schedule_at engine ~at (fun () ->
         lg := Some (Nkapps.Loadgen.start ~engine ~api cfg)));
  lg

(* ---- rpc-short ----------------------------------------------------------- *)

let rpc_groups = 8
let rpc_clients_per_group = 8
let rpc_total = 10_000
let rpc_bytes = 64

let rpc_short ~seed env =
  let w = nk_world ~seed env in
  let engine = w.W.tb.Testbed.engine in
  let proto =
    Nkapps.Proto.Fixed { request = rpc_bytes; response = rpc_bytes; keepalive = false }
  in
  let addr = Addr.make W.server_ip 80 in
  ignore
    (get_exn "epoll server"
       (Nkapps.Epoll_server.start ~engine ~api:(env.server_api (Vm.api w.W.server_vm))
          (Nkapps.Epoll_server.config ~backlog:8192 ~proto addr)));
  let reqs, capi =
    Obs.requests_api ~engine ~response:rpc_bytes (env.client_api (Vm.api w.W.client_vm))
  in
  let rng = Rng.create ~seed in
  let per_group = rpc_total / rpc_groups in
  let lgs =
    List.init rpc_groups (fun _ ->
        start_loadgen ~engine ~api:capi ~at:(start_offset rng)
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Closed
                { concurrency = rpc_clients_per_group; total = Some per_group; duration = None };
            warmup = 0.0;
          })
  in
  let finish () =
    let rs = loadgen_results lgs in
    let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 rs in
    let completed = sum (fun r -> r.Nkapps.Loadgen.completed) in
    let errors = sum (fun r -> r.Nkapps.Loadgen.errors) in
    let started = List.fold_left (fun a (_, r) -> Float.min a r.Nkapps.Loadgen.started) infinity rs in
    let finished = List.fold_left (fun a (_, r) -> Float.max a r.Nkapps.Loadgen.finished) 0.0 rs in
    let checks =
      [
        ("completed + errors = attempted", completed + errors = rpc_total);
        ("every completion carried the full response", reqs.Obs.full = completed
                                                        && reqs.Obs.oversized = 0
                                                        && reqs.Obs.lat_samples.Obs.n = completed);
      ]
    in
    let bad = List.length (List.filter (fun (_, ok) -> not ok) checks) in
    {
      attempted = rpc_total;
      completed;
      failed = rpc_total - completed + bad;
      checks;
      ops = float_of_int completed;
      payload_bytes = float_of_int (completed * 2 * rpc_bytes);
      window = finished -. started;
      latencies = Obs.to_array reqs.Obs.lat_samples;
      relay_stall = 0.0;
    }
  in
  single_host w ~until:10.0 ~finish

(* ---- kv-bytes ------------------------------------------------------------ *)

let kv_conns = 8
let kv_keys_per_conn = 32
let kv_total = 24_000

type kv_op = Set of int * string | Get of int

(* Values are ~1 KB of printable bytes (no spaces or CR/LF, which the text
   protocol frames on); keys are private to their connection, so the
   expected GET result is exactly the last SET acknowledged on it. *)
let kv_inputs ~seed =
  let rng = Rng.create ~seed:(seed + 1) in
  let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" in
  let value () =
    let len = 768 + Rng.int rng 513 in
    let b = Bytes.create len in
    let bits = ref 0L and left = ref 0 in
    for i = 0 to len - 1 do
      if !left = 0 then begin
        bits := Rng.bits64 rng;
        left := 10
      end;
      Bytes.set b i alphabet.[Int64.to_int (Int64.logand !bits 63L)];
      bits := Int64.shift_right_logical !bits 6;
      decr left
    done;
    Bytes.unsafe_to_string b
  in
  Array.init kv_conns (fun _ ->
      Array.init (kv_total / kv_conns) (fun _ ->
          let key = Rng.int rng kv_keys_per_conn in
          if Rng.bool rng then Set (key, value ()) else Get key))

let kv_bytes ~seed ~inputs env =
  let w = nk_world ~seed env in
  let engine = w.W.tb.Testbed.engine in
  let addr = Addr.make W.server_ip 6379 in
  ignore
    (get_exn "kv server"
       (Nkapps.Kvstore.start ~engine ~api:(env.server_api (Vm.api w.W.server_vm)) ~addr));
  let capi = env.client_api (Vm.api w.W.client_vm) in
  let rng = Rng.create ~seed in
  let lat = Obs.samples () in
  let completed = ref 0 and errors = ref 0 and wrong = ref 0 and bytes = ref 0 in
  let first = ref infinity and last = ref 0.0 in
  let now () = Sim.Engine.now engine in
  Array.iteri
    (fun c ops ->
      let keys = Array.init kv_keys_per_conn (fun k -> Printf.sprintf "c%dk%d" c k) in
      let model = Array.make kv_keys_per_conn None in
      let rec step conn i =
        if i = Array.length ops then Nkapps.Kvstore.Client.close conn
        else begin
          let t0 = now () in
          first := Float.min !first t0;
          let done_ ok moved =
            if ok then begin
              incr completed;
              bytes := !bytes + moved;
              Obs.add lat (now () -. t0)
            end
            else incr errors;
            last := now ();
            step conn (i + 1)
          in
          match ops.(i) with
          | Set (k, v) ->
              Nkapps.Kvstore.Client.set conn ~key:keys.(k) ~value:v ~k:(function
                | Ok () ->
                    model.(k) <- Some v;
                    done_ true (String.length v)
                | Error _ -> done_ false 0)
          | Get k ->
              Nkapps.Kvstore.Client.get conn ~key:keys.(k) ~k:(function
                | Ok got ->
                    if got <> model.(k) then incr wrong;
                    done_ true (match got with Some v -> String.length v | None -> 0)
                | Error _ -> done_ false 0)
        end
      in
      ignore
        (Sim.Engine.schedule_at engine ~at:(start_offset rng) (fun () ->
             Nkapps.Kvstore.Client.connect ~engine ~api:capi addr ~k:(function
               | Ok conn -> step conn 0
               | Error _ -> errors := !errors + Array.length ops))))
    inputs;
  let finish () =
    let checks =
      [
        ("every command answered", !completed + !errors = kv_total);
        ("every GET returns the last acknowledged SET", !wrong = 0);
      ]
    in
    {
      attempted = kv_total;
      completed = !completed;
      failed = kv_total - !completed + !wrong;
      checks;
      ops = float_of_int !completed;
      payload_bytes = float_of_int !bytes;
      window = !last -. !first;
      latencies = Obs.to_array lat;
      relay_stall = 0.0;
    }
  in
  single_host w ~until:10.0 ~finish

(* ---- bulk-stream --------------------------------------------------------- *)

let bulk_streams = 8
let bulk_msg = 65_536
let bulk_duration = 0.4

let bulk_stream ~seed env =
  let w = nk_world ~seed env in
  let engine = w.W.tb.Testbed.engine in
  let b = Obs.bulk () in
  let sink_addr = Addr.make W.client_ip 5001 in
  let sink =
    get_exn "sink"
      (Nkapps.Stream.sink ~engine
         ~api:(Obs.bulk_sink_api b ~engine ~size:bulk_msg (env.client_api (Vm.api w.W.client_vm)))
         ~addr:sink_addr)
  in
  let sapi =
    Obs.bulk_sender_api b ~engine ~size:bulk_msg (env.server_api (Vm.api w.W.server_vm))
  in
  let rng = Rng.create ~seed in
  (* Stream k opens in its own 50 us slot (seeded within the slot), so the
     sink accepts the streams in the order they connect. *)
  let senders =
    List.init bulk_streams (fun k ->
        let start = 1e-3 +. (float_of_int k *. 50e-6) +. Rng.float_range rng 0.0 25e-6 in
        Nkapps.Stream.senders ~engine ~api:sapi ~dst:sink_addr ~streams:1 ~msg_size:bulk_msg
          ~start ~stop:(start +. bulk_duration) ())
  in
  let finish () =
    let sent, sender_failures =
      List.fold_left
        (fun (s, f) c ->
          let st = Nkapps.Stream.sender_stats c in
          (s + st.Nkapps.Stream.sent, f + st.Nkapps.Stream.failed))
        (0, 0) senders
    in
    let ss = Nkapps.Stream.sink_stats sink in
    let received = ss.Nkapps.Stream.bytes in
    let msgs n = (n + bulk_msg - 1) / bulk_msg in
    let checks =
      [
        ("bytes accepted by senders = bytes received by sink", sent = received);
        ("the same holds per stream", Obs.bulk_balanced b);
        ("no stream failed", sender_failures = 0);
      ]
    in
    {
      attempted = msgs sent;
      completed = msgs received;
      failed = msgs sent - msgs received + sender_failures + (if sent = received then 0 else 1);
      checks;
      ops = float_of_int received /. float_of_int bulk_msg;
      payload_bytes = float_of_int received;
      window = ss.Nkapps.Stream.last_byte -. ss.Nkapps.Stream.first_byte;
      latencies = Obs.to_array b.Obs.msg_samples;
      relay_stall = 0.0;
    }
  in
  single_host w ~until:(bulk_duration +. 0.2) ~finish

(* ---- cluster-migrate ----------------------------------------------------- *)

let cl_vms = 4
let cl_concurrency = 1
let cl_request = 128
let cl_response = 1024
let cl_cut_at = 0.1
let cl_quiesce = 0.02
let cl_load_until = 1.3
let cl_hugepage_pages = 4

let cluster_migrate ~seed env =
  let tb =
    Testbed.create
      ~config:{ Testbed.Config.default with seed; span_every = env.span_every }
      ()
  in
  let engine = tb.Testbed.engine in
  let cluster = Nkfabric.create ~policy:Nkfabric.Spread tb in
  let nodea = Nkfabric.add_node cluster ~name:"nodeA" in
  let nodeb = Nkfabric.add_node cluster ~name:"nodeB" in
  let nsma = Nsm.create_kernel (Nkfabric.node_host nodea) ~name:"nsmA" ~vcpus:1 () in
  let nsmb = Nsm.create_kernel (Nkfabric.node_host nodeb) ~name:"nsmB" ~vcpus:1 () in
  Nkfabric.add_nsm cluster nodea nsma;
  Nkfabric.add_nsm cluster nodeb nsmb;
  let vms =
    List.init cl_vms (fun i ->
        Nkfabric.place_vm cluster ~name:(Printf.sprintf "srv%d" i) ~vcpus:1 ~ips:[ 10 + i ]
          ~hugepage_pages:cl_hugepage_pages ())
  in
  (* Spread placement alternates nodes; the VMs homed on node A are the
     ones the migration relays. *)
  let relayed =
    List.concat_map
      (fun vm ->
        match Nkfabric.vm_node cluster vm with
        | Some n when Nkfabric.node_index n = Nkfabric.node_index nodea -> Vm.ips vm
        | Some _ | None -> [])
      vms
  in
  let clients_host = Testbed.add_host tb ~name:"clients" in
  let client =
    Vm.create_baseline clients_host ~name:"clients" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 100 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  let reqs, capi = Obs.requests_api ~engine ~response:cl_response (env.client_api (Vm.api client)) in
  let proto =
    Nkapps.Proto.Fixed { request = cl_request; response = cl_response; keepalive = true }
  in
  let rng = Rng.create ~seed in
  let lgs =
    List.mapi
      (fun i vm ->
        let addr = Addr.make (10 + i) 80 in
        ignore
          (get_exn "epoll server"
             (Nkapps.Epoll_server.start ~engine ~api:(env.server_api (Vm.api vm))
                (Nkapps.Epoll_server.config ~proto addr)));
        let at = start_offset rng in
        start_loadgen ~engine ~api:capi ~at
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Closed
                { concurrency = cl_concurrency; total = None; duration = Some (cl_load_until -. at) };
            warmup = 0.0;
          })
      vms
  in
  let dest = ref None in
  ignore
    (Sim.Engine.schedule_at engine ~at:cl_cut_at (fun () ->
         dest := Some (Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb ~quiesce:cl_quiesce ())));
  let nodes = [ nodea; nodeb ] in
  let nsms () = nsma :: nsmb :: Option.to_list !dest in
  let finish () =
    let rs = loadgen_results lgs in
    let sum f = List.fold_left (fun acc (lg, r) -> acc + f lg r) 0 rs in
    let completed = sum (fun _ r -> r.Nkapps.Loadgen.completed) in
    let errors = sum (fun _ r -> r.Nkapps.Loadgen.errors) in
    let in_flight = sum (fun lg _ -> Nkapps.Loadgen.in_flight lg) in
    let started = List.fold_left (fun a (_, r) -> Float.min a r.Nkapps.Loadgen.started) infinity rs in
    let finished = List.fold_left (fun a (_, r) -> Float.max a r.Nkapps.Loadgen.finished) 0.0 rs in
    let cut = cl_cut_at +. cl_quiesce in
    let recovered =
      List.map
        (fun ip ->
          List.fold_left
            (fun acc (t, dst) -> if dst = ip && t >= cut then Float.min acc t else acc)
            infinity reqs.Obs.completions)
        relayed
    in
    let stats = Nkfabric.stats cluster in
    let all_recovered = relayed <> [] && List.for_all Float.is_finite recovered in
    let checks =
      [
        ("exactly one migration", stats.Nkfabric.migrations = 1);
        ("zero errors", errors = 0);
        ("every relayed VM completes requests after the cut", all_recovered);
        ("every completion carried the full response", reqs.Obs.full = completed
                                                        && reqs.Obs.oversized = 0
                                                        && reqs.Obs.lat_samples.Obs.n = completed);
      ]
    in
    let bad = List.length (List.filter (fun (_, ok) -> not ok) checks) in
    {
      attempted = completed + errors + in_flight;
      completed;
      failed = errors + in_flight + bad;
      checks;
      ops = float_of_int completed;
      payload_bytes = float_of_int (completed * (cl_request + cl_response));
      window = finished -. started;
      latencies = Obs.to_array reqs.Obs.lat_samples;
      relay_stall =
        (if all_recovered then List.fold_left Float.max 0.0 recovered -. cut else 0.0);
    }
  in
  {
    tb;
    until = cl_load_until +. 0.5;
    mons = tb.Testbed.mon :: List.map Nkfabric.node_mon nodes;
    spans = List.map Nkfabric.node_spans nodes @ [ tb.Testbed.spans ];
    hosts = clients_host :: List.map Nkfabric.node_host nodes;
    cores =
      (fun () ->
        {
          vm = List.concat_map (fun vm -> set_cores (Vm.cores vm)) vms;
          nsm = List.concat_map (fun n -> set_cores (Nsm.cores n)) (nsms ());
          ce = List.concat_map (fun n -> Array.to_list (Host.ce_cores (Nkfabric.node_host n))) nodes;
          client = set_cores (Vm.cores client);
        });
    roles =
      (fun () ->
      List.concat_map roles_of_vm vms
      @ List.concat_map roles_of_nsm (nsms ())
      @ List.concat_map (fun n -> roles_of_host (Nkfabric.node_host n)) nodes
      @ [ (Vm.name client, "client") ]);
    spine =
      (fun () ->
        let s = Nkfabric.stats cluster in
        (s.Nkfabric.nqes_shipped, s.Nkfabric.bytes_shipped));
    finish;
  }

(* ---- registry ------------------------------------------------------------ *)

(* [prepare ~seed] draws the workload's inputs (outside any timing) and
   returns the world builder main.ml calls once per round. *)
type spec = { name : string; prepare : seed:int -> env -> world }

let all =
  [
    { name = "rpc-short"; prepare = (fun ~seed -> rpc_short ~seed) };
    {
      name = "kv-bytes";
      prepare =
        (fun ~seed ->
          let inputs = kv_inputs ~seed in
          kv_bytes ~seed ~inputs);
    };
    { name = "bulk-stream"; prepare = (fun ~seed -> bulk_stream ~seed) };
    { name = "cluster-migrate"; prepare = (fun ~seed -> cluster_migrate ~seed) };
  ]
