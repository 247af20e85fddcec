(* The Nkctl control plane: NSM deregistration, autoscaling against a
   time-varying load, and crash failover with data-integrity checks. *)

open Nkcore
module Types = Tcpstack.Types
module E = Sim.Engine

let checksum s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

let no_spawn _ = Alcotest.fail "unexpected NSM spawn"

(* deregister_nsm is symmetric to deregister_vm: a departed NSM must leave
   no conn-table entries behind (its routes, including listener sockets,
   would otherwise leak and keep round-robin placement pointing at it). *)
let deregister_nsm_cleans_tables () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:1 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let addr = Addr.make 10 6379 in
  ignore
    (Types.get_exn "kv" (Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr));
  ignore
    (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client)
           addr
           ~k:(fun r ->
             let conn = Types.get_exn "connect" r in
             Nkapps.Kvstore.Client.set conn ~key:"k" ~value:"v" ~k:(fun _ ->
                 Nkapps.Kvstore.Client.close conn))));
  Testbed.run tb ~until:1.0;
  let ce = Host.coreengine hosta in
  let id = Nsm.id nsm in
  if Coreengine.nsm_conn_count ce ~nsm_id:id < 1 then
    Alcotest.fail "expected live routes on the NSM (at least the listener)";
  if Coreengine.conn_table_size ce < 1 then Alcotest.fail "expected conn-table entries";
  Coreengine.deregister_nsm ce ~nsm_id:id;
  Alcotest.(check int) "no routes left on departed NSM" 0
    (Coreengine.nsm_conn_count ce ~nsm_id:id);
  Alcotest.(check int) "conn table fully reclaimed" 0 (Coreengine.conn_table_size ce)

(* Autoscaling: a high-rate phase must push the pool above one NSM, the
   following trough must drain and retire the extras back to the minimum. *)
let autoscale_up_then_down () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let spawn i = Nsm.create_kernel hosta ~name:(Printf.sprintf "nsm%d" i) ~vcpus:1 () in
  let nsm0 = spawn 0 in
  let ctl =
    Nkctl.create hosta
      ~policy:
        {
          Nkctl.Policy.period = 0.2;
          high_watermark = 0.55;
          low_watermark = 0.2;
          min_nsms = 1;
          max_nsms = 3;
          cooldown = 0.5;
          ce_scale_watermark = infinity;
          max_ce_shards = 4;
        }
      ~spawn:(fun i -> spawn (i + 1))
      ()
  in
  Nkctl.manage ctl nsm0;
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm0 ] () in
  Nkctl.add_vm ctl vm ~home:nsm0;
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 256; response = 4096; keepalive = false } in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))));
  let lg =
    Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
      ~start:(E.now tb.Testbed.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = Addr.make 10 80;
        proto;
        mode =
          Nkapps.Loadgen.Open
            {
              (* spike for 2.5 s, then a near-idle trough *)
              rate_at = (fun t -> if t < 2.5 then 60_000.0 else 200.0);
              duration = 6.0;
            };
        warmup = 0.0;
      }
  in
  Nkctl.start ctl;
  Testbed.run tb ~until:6.5;
  Nkctl.stop ctl;
  let r = Nkapps.Loadgen.results lg in
  let s = Nkctl.stats ctl in
  let peak_active =
    List.fold_left (fun acc x -> Int.max acc x.Nkctl.s_active) 0 (Nkctl.samples ctl)
  in
  let peak_util =
    List.fold_left
      (fun acc x -> Float.max acc x.Nkctl.s_utilization)
      0.0 (Nkctl.samples ctl)
  in
  if s.Nkctl.scale_ups < 1 then
    Alcotest.failf "spike should trigger a scale-up (peak util %.2f)" peak_util;
  if peak_active < 2 then Alcotest.failf "pool should grow at the spike (%d)" peak_active;
  if s.Nkctl.scale_downs < 1 then Alcotest.fail "trough should trigger a scale-down";
  if s.Nkctl.drains_completed < 1 then
    Alcotest.fail "drained NSM should retire at zero connections";
  Alcotest.(check int) "consolidated back to the minimum" 1
    (List.length (Nkctl.active_nsms ctl));
  if r.Nkapps.Loadgen.completed < 60_000 then
    Alcotest.failf "most requests should be served (%d)" r.Nkapps.Loadgen.completed;
  (* Listener re-homing windows may cost a handful of connects, never more. *)
  if r.Nkapps.Loadgen.errors * 100 > r.Nkapps.Loadgen.completed then
    Alcotest.failf "error rate too high: %d/%d" r.Nkapps.Loadgen.errors
      r.Nkapps.Loadgen.completed

(* Crash failover: one NSM dies under load. Sockets on the dead NSM get
   errors (never hangs), traffic on the surviving NSM is byte-identical,
   and after the controller re-places the VM its service resumes. *)
let crash_failover_integrity () =
  (* A slow (1 Gb/s) fabric stretches the bulk transfers so the crash lands
     mid-stream. *)
  let tb = Testbed.create ~config:{ Testbed.Config.default with rate_gbps = 1.0 } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm1 = Nsm.create_kernel hosta ~name:"nsm1" ~vcpus:1 () in
  let nsm2 = Nsm.create_kernel hosta ~name:"nsm2" ~vcpus:1 () in
  let ctl = Nkctl.create hosta ~spawn:no_spawn () in
  Nkctl.manage ctl nsm1;
  Nkctl.manage ctl nsm2;
  let vm1 = Vm.create_nk hosta ~name:"vm1" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm1 ] () in
  let vm2 = Vm.create_nk hosta ~name:"vm2" ~vcpus:1 ~ips:[ 11 ] ~nsms:[ nsm2 ] () in
  Nkctl.add_vm ctl vm1 ~home:nsm1;
  Nkctl.add_vm ctl vm2 ~home:nsm2;
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20; 21 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let addr1 = Addr.make 10 6379 and addr2 = Addr.make 11 6379 in
  List.iter
    (fun (vm, addr) ->
      ignore
        (Types.get_exn "kv" (Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr)))
    [ (vm1, addr1); (vm2, addr2) ];
  let big = String.init 300_000 (fun i -> Char.chr (33 + ((i * 7) mod 90))) in
  (* Survivor: bulk set+get through vm2/nsm2, spanning the crash. *)
  let survivor_got = ref None in
  ignore
    (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client)
           addr2
           ~k:(fun r ->
             let conn = Types.get_exn "survivor connect" r in
             Nkapps.Kvstore.Client.set conn ~key:"blob" ~value:big ~k:(fun r ->
                 (match r with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "survivor set: %s" e);
                 Nkapps.Kvstore.Client.get conn ~key:"blob" ~k:(fun r ->
                     (match r with
                     | Ok v -> survivor_got := v
                     | Error e -> Alcotest.failf "survivor get: %s" e);
                     Nkapps.Kvstore.Client.close conn)))));
  (* Victim: a long transfer through vm1/nsm1; the crash lands mid-stream,
     so this request must fail fast, not hang. *)
  let victim_outcome = ref `Pending in
  ignore
    (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client)
           addr1
           ~k:(fun r ->
             let conn = Types.get_exn "victim connect" r in
             Nkapps.Kvstore.Client.set conn ~key:"blob" ~value:big ~k:(fun r ->
                 (match r with
                 | Ok () -> victim_outcome := `Completed
                 | Error _ -> victim_outcome := `Errored);
                 Nkapps.Kvstore.Client.close conn))));
  ignore (E.schedule tb.Testbed.engine ~delay:2e-3 (fun () -> Nsm.fail nsm1));
  (* The controller notices the crash on its next tick and re-places vm1
     (onto nsm2, the only survivor), re-homing its listener; a later client
     request against vm1 must then succeed again. *)
  ignore (E.schedule tb.Testbed.engine ~delay:0.1 (fun () -> Nkctl.tick ctl));
  let recovered = ref None in
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.5 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client)
           addr1
           ~k:(fun r ->
             let conn = Types.get_exn "recovery connect" r in
             Nkapps.Kvstore.Client.set conn ~key:"post" ~value:"failover"
               ~k:(fun r ->
                 (match r with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "recovery set: %s" e);
                 Nkapps.Kvstore.Client.get conn ~key:"post" ~k:(fun r ->
                     (match r with
                     | Ok v -> recovered := v
                     | Error e -> Alcotest.failf "recovery get: %s" e);
                     Nkapps.Kvstore.Client.close conn)))));
  Testbed.run tb ~until:5.0;
  (match !victim_outcome with
  | `Errored -> ()
  | `Completed -> Alcotest.fail "victim transfer should have died with the NSM"
  | `Pending -> Alcotest.fail "victim socket hung instead of erroring");
  (match !survivor_got with
  | Some v ->
      Alcotest.(check int) "survivor length intact" (String.length big)
        (String.length v);
      Alcotest.(check int) "survivor content intact" (checksum big) (checksum v)
  | None -> Alcotest.fail "survivor transfer never completed");
  (match !recovered with
  | Some v -> Alcotest.(check string) "service resumed after failover" "failover" v
  | None -> Alcotest.fail "vm1 never recovered after failover");
  Alcotest.(check int) "one failover recorded" 1 (Nkctl.stats ctl).Nkctl.failovers;
  Alcotest.(check int) "dead NSM left the pool" 1 (Nkctl.pool_size ctl)

(* CE autoscaling: with a finite ce_scale_watermark, load on the switching
   path must make the policy loop add CoreEngine shards — and stop at the
   max_ce_shards cap regardless of how hot the shards stay. *)
let ce_autoscale_under_load () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
  let ctl =
    Nkctl.create hosta
      ~policy:
        {
          Nkctl.Policy.period = 0.1;
          (* NSM watermarks out of reach: this test isolates the CE path. *)
          high_watermark = 2.0;
          low_watermark = 0.0;
          min_nsms = 1;
          max_nsms = 1;
          cooldown = 0.2;
          (* Any sustained switching activity crosses this. *)
          ce_scale_watermark = 0.01;
          max_ce_shards = 2;
        }
      ~spawn:no_spawn ()
  in
  Nkctl.manage ctl nsm;
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  Nkctl.add_vm ctl vm ~home:nsm;
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false } in
  ignore
    (Types.get_exn "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))));
  let lg =
    Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
      ~start:(E.now tb.Testbed.engine +. 1e-3)
      {
        Nkapps.Loadgen.server = Addr.make 10 80;
        proto;
        mode =
          Nkapps.Loadgen.Closed
            { concurrency = 32; total = None; duration = Some 2.0 };
        warmup = 0.0;
      }
  in
  Alcotest.(check int) "starts with one shard" 1
    (Coreengine.n_shards (Host.coreengine hosta));
  Nkctl.start ctl;
  Testbed.run tb ~until:2.5;
  Nkctl.stop ctl;
  let s = Nkctl.stats ctl in
  Alcotest.(check int) "grew to the shard cap and stopped" 2
    (Coreengine.n_shards (Host.coreengine hosta));
  Alcotest.(check int) "exactly one CE scale-out recorded" 1 s.Nkctl.ce_scale_outs;
  let peak_ce =
    List.fold_left
      (fun acc x -> Float.max acc x.Nkctl.s_ce_utilization)
      0.0 (Nkctl.samples ctl)
  in
  if peak_ce <= 0.01 then
    Alcotest.failf "sampled CE utilization should exceed the watermark (%.4f)" peak_ce;
  Alcotest.(check int) "no NSM scale-ups" 0 s.Nkctl.scale_ups;
  let r = Nkapps.Loadgen.results lg in
  if r.Nkapps.Loadgen.completed = 0 then Alcotest.fail "no requests completed";
  Alcotest.(check int) "no errors across the scale-out" 0 r.Nkapps.Loadgen.errors

(* Regression: handover (or manage/add_vm) targeting a retired or crashed
   NSM used to re-add the corpse to the pool and silently pin the VM's
   flows on a module CoreEngine no longer polls. It must raise instead,
   leaving the VM's home and the pool untouched. *)
let handover_to_dead_nsm_rejected () =
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let nsm1 = Nsm.create_kernel hosta ~name:"nsm1" ~vcpus:1 () in
  let nsm2 = Nsm.create_kernel hosta ~name:"nsm2" ~vcpus:1 () in
  let nsm3 = Nsm.create_kernel hosta ~name:"nsm3" ~vcpus:1 () in
  let ctl = Nkctl.create hosta ~spawn:no_spawn () in
  Nkctl.manage ctl nsm1;
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm1 ] () in
  Nkctl.add_vm ctl vm ~home:nsm1;
  Nsm.retire nsm2;
  Nsm.fail nsm3;
  let expect_invalid name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "handover to retired" (fun () ->
      Nkctl.handover ctl ~vm ~target:nsm2);
  expect_invalid "handover to crashed" (fun () ->
      Nkctl.handover ctl ~vm ~target:nsm3);
  expect_invalid "manage retired" (fun () -> Nkctl.manage ctl nsm2);
  expect_invalid "add_vm homed on crashed" (fun () ->
      Nkctl.add_vm ctl vm ~home:nsm3);
  Alcotest.(check int) "dead NSMs never entered the pool" 1 (Nkctl.pool_size ctl);
  Alcotest.(check int) "live NSM still active" 1
    (List.length (Nkctl.active_nsms ctl));
  Alcotest.(check int) "no handover recorded" 0 (Nkctl.stats ctl).Nkctl.handovers

let tests =
  [
    Alcotest.test_case "deregister_nsm reclaims conn-table routes" `Quick
      deregister_nsm_cleans_tables;
    Alcotest.test_case "handover/manage reject a retired or crashed NSM" `Quick
      handover_to_dead_nsm_rejected;
    Alcotest.test_case "autoscale up at spike, down at trough" `Quick
      autoscale_up_then_down;
    Alcotest.test_case "crash failover: errors not hangs, data intact" `Quick
      crash_failover_integrity;
    Alcotest.test_case "CE autoscale: watermark adds shards up to the cap" `Quick
      ce_autoscale_under_load;
  ]
