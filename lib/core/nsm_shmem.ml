module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Types = Tcpstack.Types
module Ring = Nkutil.Spsc_ring

type vm_ctx = { vm_id : int; hugepages : Hugepages.t; mutable next_gid : int }

type pending = { extent : Hugepages.extent; synthetic : bool; pd_span : int }

type endpoint = {
  ep_vm : vm_ctx;
  ep_gid : int;
  mutable nsm_qset : int;
  mutable vm_qset : int;
  mutable peer : endpoint option;
  outbox : pending Queue.t; (* sent extents awaiting peer credit *)
  mutable credit_used : int; (* bytes delivered to this endpoint's VM *)
  mutable bound : Addr.t option;
  mutable closed : bool;
  mutable eof_sent : bool; (* we told this endpoint's VM about peer close *)
}

type listener = { l_vm : vm_ctx; l_gid : int; l_ep : endpoint }

module Endpoint_table = Hashtbl.Make (struct
  type t = Addr.t

  let equal = Addr.equal
  let hash = Addr.hash
end)

type qset_state = {
  mutable scheduled : bool;
  (* Reusable burst buffer for [process_qset]; per queue set because the
     dispatch loop runs deferred behind [Cpu.exec]. *)
  scratch : bytes array;
}

type stats = { bytes_copied : int; conns : int }

(* Live registry-backed counters; [stats] snapshots them. *)
type counters = {
  c_bytes_copied : Nkmon.Registry.counter;
  c_conns : Nkmon.Registry.counter;
}

type t = {
  engine : Engine.t;
  device : Nk_device.t;
  cores : Cpu.Set.t;
  costs : Nk_costs.t;
  copy_cost : float;
  vms : (int, vm_ctx) Hashtbl.t;
  socks : (int * int, endpoint) Hashtbl.t; (* (vm_id, gid) -> endpoint *)
  listeners : listener Endpoint_table.t;
  qstates : qset_state array;
  spans : Nkspan.t;
  instance : string;
  ctr : counters;
}

let stats t =
  let module R = Nkmon.Registry in
  {
    bytes_copied = R.counter_value t.ctr.c_bytes_copied;
    conns = R.counter_value t.ctr.c_conns;
  }

let register_vm t ~vm_id ~hugepages ~ips =
  ignore ips;
  Hashtbl.replace t.vms vm_id { vm_id; hugepages; next_gid = 1 }

let deregister_vm t ~vm_id = Hashtbl.remove t.vms vm_id

(* ---- replies ------------------------------------------------------------- *)

let post t (ep : endpoint) op ?op_data ?data_ptr ?size ?synthetic ?span () =
  Cpu.charge (Cpu.Set.core t.cores ep.nsm_qset) ~cycles:t.costs.Nk_costs.nqe_encode;
  let queue =
    match op with Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof -> `Receive | _ -> `Completion
  in
  Nk_device.post t.device ~qset:ep.nsm_qset queue
    (Nqe.encode
       (Nqe.make ~op ~vm_id:ep.ep_vm.vm_id ~qset:ep.vm_qset ~sock:ep.ep_gid ?op_data
          ?data_ptr ?size ?synthetic ?span ()))

let post_result t ep op err =
  post t ep op ~op_data:(match err with None -> Nqe.ok_code | Some e -> Nqe.err_code e) ()

(* ---- data movement --------------------------------------------------------- *)

(* Move queued chunks from [src]'s outbox into [dst]'s VM while credit and
   hugepage space allow. *)
let rec drain t (src : endpoint) (dst : endpoint) =
  match Queue.peek_opt src.outbox with
  | None ->
      if src.closed && not dst.eof_sent then begin
        dst.eof_sent <- true;
        if not dst.closed then post t dst Nqe.Ev_eof ()
      end
  | Some p ->
      if dst.closed then begin
        (* Peer is gone: return the extents to the sender. *)
        ignore (Queue.pop src.outbox);
        post t src Nqe.Comp_send ~data_ptr:p.extent.Hugepages.offset
          ~size:p.extent.Hugepages.len ~span:p.pd_span ();
        Nkspan.end_stage t.spans ~id:p.pd_span "servicelib";
        drain t src dst
      end
      else begin
        let len = p.extent.Hugepages.len in
        if dst.credit_used + len > t.costs.Nk_costs.nsm_rwnd then ()
        else
          match Hugepages.alloc dst.ep_vm.hugepages len with
          | None ->
              ignore
                (Engine.schedule t.engine ~delay:50e-6 (fun () -> drain t src dst))
          | Some dst_extent ->
              ignore (Queue.pop src.outbox);
              if not p.synthetic then
                Hugepages.blit_between ~src:src.ep_vm.hugepages ~src_extent:p.extent
                  ~dst:dst.ep_vm.hugepages ~dst_extent ~len;
              Cpu.charge
                (Cpu.Set.core t.cores dst.nsm_qset)
                ~cycles:(float_of_int len *. t.copy_cost);
              Nkmon.Registry.add t.ctr.c_bytes_copied len;
              dst.credit_used <- dst.credit_used + len;
              post t dst Nqe.Ev_data ~data_ptr:dst_extent.Hugepages.offset ~size:len
                ~synthetic:p.synthetic ();
              post t src Nqe.Comp_send ~data_ptr:p.extent.Hugepages.offset ~size:len
                ~span:p.pd_span ();
              Nkspan.end_stage t.spans ~id:p.pd_span "servicelib";
              drain t src dst
      end

(* ---- NQE dispatch ------------------------------------------------------------ *)

let fresh_endpoint vm ~gid ~nsm_qset ~vm_qset =
  {
    ep_vm = vm;
    ep_gid = gid;
    nsm_qset;
    vm_qset;
    peer = None;
    outbox = Queue.create ();
    credit_used = 0;
    bound = None;
    closed = false;
    eof_sent = false;
  }

let lookup_or_create t vm (nqe : Nqe.t) ~qset_idx =
  let key = (vm.vm_id, nqe.Nqe.sock) in
  match Hashtbl.find_opt t.socks key with
  | Some ep ->
      ep.vm_qset <- nqe.Nqe.qset;
      Some ep
  | None ->
      if nqe.Nqe.op = Nqe.Socket then begin
        let ep = fresh_endpoint vm ~gid:nqe.Nqe.sock ~nsm_qset:qset_idx ~vm_qset:nqe.Nqe.qset in
        Hashtbl.replace t.socks key ep;
        Some ep
      end
      else None

let apply t ~qset_idx (nqe : Nqe.t) =
  match Hashtbl.find_opt t.vms nqe.Nqe.vm_id with
  | None -> ()
  | Some vm -> (
      match lookup_or_create t vm nqe ~qset_idx with
      | None -> ()
      | Some ep -> (
          match nqe.Nqe.op with
          | Nqe.Socket -> post_result t ep Nqe.Comp_socket None
          | Nqe.Bind ->
              ep.bound <- Some (Nqe.unpack_addr nqe.Nqe.op_data);
              post_result t ep Nqe.Comp_bind None
          | Nqe.Listen -> (
              match ep.bound with
              | None -> post_result t ep Nqe.Comp_listen (Some Types.Einval)
              | Some addr ->
                  Endpoint_table.replace t.listeners addr
                    { l_vm = vm; l_gid = ep.ep_gid; l_ep = ep };
                  post_result t ep Nqe.Comp_listen None)
          | Nqe.Connect -> (
              let dst = Nqe.unpack_addr nqe.Nqe.op_data in
              match Endpoint_table.find_opt t.listeners dst with
              | None -> post_result t ep Nqe.Comp_connect (Some Types.Econnrefused)
              | Some l ->
                  let sgid =
                    Nqe.nsm_sock_bit
                    lor (Nk_device.id t.device lsl 22)
                    lor (l.l_vm.next_gid land 0x3FFFFF)
                  in
                  l.l_vm.next_gid <- l.l_vm.next_gid + 1;
                  let server =
                    fresh_endpoint l.l_vm ~gid:sgid
                      ~nsm_qset:(sgid * 2654435761 land max_int mod Cpu.Set.n t.cores)
                      ~vm_qset:Nqe.qset_unassigned
                  in
                  Hashtbl.replace t.socks (l.l_vm.vm_id, sgid) server;
                  ep.peer <- Some server;
                  server.peer <- Some ep;
                  Nkmon.Registry.incr t.ctr.c_conns;
                  (* Announce the connection to the listener's VM. *)
                  Cpu.charge
                    (Cpu.Set.core t.cores server.nsm_qset)
                    ~cycles:t.costs.Nk_costs.nqe_encode;
                  Nk_device.post t.device ~qset:server.nsm_qset `Receive
                    (Nqe.encode
                       (Nqe.make ~op:Nqe.Ev_accept ~vm_id:l.l_vm.vm_id
                          ~qset:Nqe.qset_unassigned ~sock:l.l_gid
                          ~op_data:
                            (Nqe.pack_addr
                               (match ep.bound with
                               | Some a -> a
                               | None -> Addr.make vm.vm_id 0))
                          ~size:sgid ()));
                  post_result t ep Nqe.Comp_connect None)
          | Nqe.Send -> (
              Queue.add
                {
                  extent = { Hugepages.offset = nqe.Nqe.data_ptr; len = nqe.Nqe.size };
                  synthetic = nqe.Nqe.synthetic;
                  pd_span = nqe.Nqe.span;
                }
                ep.outbox;
              match ep.peer with Some peer -> drain t ep peer | None -> ())
          | Nqe.Recv_done -> (
              ep.credit_used <- Int.max 0 (ep.credit_used - nqe.Nqe.size);
              match ep.peer with Some peer -> drain t peer ep | None -> ())
          | Nqe.Close ->
              ep.closed <- true;
              (match ep.bound with
              | Some addr -> (
                  match Endpoint_table.find_opt t.listeners addr with
                  | Some l when l.l_gid = ep.ep_gid -> Endpoint_table.remove t.listeners addr
                  | Some _ | None -> ())
              | None -> ());
              (match ep.peer with
              | Some peer ->
                  drain t ep peer;
                  (* Anything the peer still owes us can be dropped. *)
                  Queue.iter
                    (fun p ->
                      post t peer Nqe.Comp_send ~data_ptr:p.extent.Hugepages.offset
                        ~size:p.extent.Hugepages.len ~span:p.pd_span ();
                      Nkspan.end_stage t.spans ~id:p.pd_span "servicelib")
                    peer.outbox;
                  Queue.clear peer.outbox
              | None -> ());
              post_result t ep Nqe.Comp_close None;
              Hashtbl.remove t.socks (vm.vm_id, ep.ep_gid)
          | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen | Nqe.Comp_connect
          | Nqe.Comp_send | Nqe.Comp_close | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof
          | Nqe.Ev_err ->
              ()))

(* ---- polling ------------------------------------------------------------------ *)

let rec process_qset t qi =
  let s = Nk_device.qset t.device qi in
  let qs = t.qstates.(qi) in
  (* One burst of at most 64 NQEs across the job + send pair (jobs first),
     drained into the per-qset scratch buffer in ring order. *)
  let n = Queue_set.drain_into s ~toward:`Nsm qs.scratch ~budget:64 ~shared:true in
  if n = 0 then qs.scheduled <- false
  else begin
    if Nkspan.enabled t.spans then
      for i = 0 to n - 1 do
        let span = Nqe.span_of_raw qs.scratch.(i) in
        Nkspan.end_stage t.spans ~id:span "ring";
        Nkspan.begin_stage t.spans ~id:span ~component:t.instance "servicelib"
      done;
    let cycles =
      t.costs.Nk_costs.service_poll +. (float_of_int n *. t.costs.Nk_costs.nqe_decode)
    in
    Nkspan.frame t.spans ~component:t.instance ~stage:"dispatch" (fun () ->
        Cpu.exec (Cpu.Set.core t.cores qi) ~cycles (fun () ->
            for i = 0 to n - 1 do
              (* Endpoint apply needs the whole record. nkscope: decode-ok *)
              match Nqe.decode qs.scratch.(i) with
              | Error _ -> ()
              | Ok nqe -> apply t ~qset_idx:qi nqe
            done;
            process_qset t qi))
  end

let on_kick t qi =
  let qs = t.qstates.(qi) in
  if not qs.scheduled then begin
    qs.scheduled <- true;
    process_qset t qi
  end

let create ~engine ~device ~cores ~costs ?(copy_cycles_per_byte = 0.3) ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) () =
  let instance = Printf.sprintf "nsm%d" (Nk_device.id device) in
  let c name = Nkmon.counter mon ~component:"nsm_shmem" ~instance ~name in
  let t =
    {
      engine;
      device;
      cores;
      costs;
      copy_cost = copy_cycles_per_byte;
      vms = Hashtbl.create 8;
      socks = Hashtbl.create 256;
      listeners = Endpoint_table.create 16;
      qstates =
        Array.init (Nk_device.n_qsets device) (fun _ ->
            { scheduled = false; scratch = Array.make 64 Bytes.empty });
      spans;
      instance;
      ctr = { c_bytes_copied = c "bytes_copied"; c_conns = c "conns" };
    }
  in
  Nk_device.set_kick_owner device (fun qi -> on_kick t qi);
  t
