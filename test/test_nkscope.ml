(* Fixture coverage for nkscope (tools/nkscope), the repo's static analyzer.
   Each fixture is typed in-process (Parse -> Typemod against the real
   stdlib env plus the minimal stubs below) and fed to
   [Nkscope_core.unit_of_structure]/[analyze], so the tests exercise
   exactly the pipeline the @lint rule runs over the build's .cmt files —
   minus only the cmt (de)serialization. One minimal snippet per rule
   asserts it fires exactly where expected and stays silent on the
   sanctioned replacement idiom. A whole-system regression closes the
   file: the CoreEngine connection table must dump byte-identically across
   two identical runs (the property D2 and T1 exist to protect). *)

module S = Nkscope_core

(* Stand-ins for the repo modules fixtures name. Rules match on paths, so a
   fixture's [Nqe.decode] normalizes exactly like the real tree's
   [Nkcore.Nqe.decode]. *)
let stubs =
  "module Unix = struct let gettimeofday () = 0. end\n\
   module Nqe = struct\n\
  \  let decode (_ : bytes) = ()\n\
  \  let decode_from (_ : bytes) (_ : int) = ()\n\
  \  module View = struct let qset (_ : bytes) = 0 end\n\
   end\n\
   module Nkspan = struct\n\
  \  let begin_stage () ~id:(_ : int) ~component:(_ : string) (_ : string) = ()\n\
  \  let end_stage () ~id:(_ : int) (_ : string) = ()\n\
   end\n\
   module Nkutil = struct\n\
  \  module Rng = struct let create ~seed = ref seed let int r n = !r mod n end\n\
  \  module Det_tbl = struct let iter ~cmp:_ _f (_ : ('a, 'b) Hashtbl.t) = () end\n\
   end\n"

let parse ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let type_in env ~path src =
  match Typemod.type_structure env (parse ~path src) with
  | str, _, _, _, env -> (str, env)
  | exception exn ->
      let msg =
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        (* [Location.report_exception] re-raises anything it has no printer
           for; fall back to the raw exception name. *)
        (try Location.report_exception fmt exn
         (* nkscope: swallow-ok *)
         with _ -> Format.pp_print_string fmt (Printexc.to_string exn));
        Format.pp_print_flush fmt ();
        Buffer.contents buf
      in
      Alcotest.failf "fixture failed to type: %s" msg

let stub_env =
  lazy
    (Clflags.dont_write_files := true;
     Compmisc.init_path ();
     snd (type_in (Compmisc.initial_env ()) ~path:"stubs.ml" stubs))

let unit_of ?(path = "lib/fixture.ml") ?(name = "Fixture") src =
  let str, _ = type_in (Lazy.force stub_env) ~path src in
  S.unit_of_structure ~file:path ~src ~name str

let rules diags = List.map (fun d -> (d.S.rule, d.S.line)) diags

let check_diags what expected ?path ?name src =
  Alcotest.(check (list (pair string int)))
    what expected
    (rules (S.analyze [ unit_of ?path ?name src ]))

(* ---- T1: determinism taint ------------------------------------------- *)

let d1_wall_clock () =
  check_diags "gettimeofday flagged in lib/"
    [ ("T1", 1) ]
    "let t0 = Unix.gettimeofday ()";
  check_diags "Sys.time flagged in lib/" [ ("T1", 2) ] "let x = 1\nlet t = Sys.time ()";
  check_diags "wall clock allowed outside lib/" [] ~path:"perfbench/fixture.ml"
    "let t0 = Unix.gettimeofday ()"

let d1_randomness () =
  check_diags "ambient Random flagged" [ ("T1", 1) ] "let x = Random.int 5";
  (* The cluster fabric lives under lib/ like everything else: migration
     decisions must come from the seeded Rng, never ambient randomness. *)
  check_diags "ambient Random flagged under lib/nkfabric/"
    [ ("T1", 1) ]
    ~path:"lib/nkfabric/nkfabric.ml" "let pick = Random.int 2";
  (* The Homa grant pacer's SRPT choice must be a deterministic fold over
     active messages — ambient randomness there would desynchronize the
     grant clock across identical runs. *)
  check_diags "ambient Random flagged under lib/homastack/"
    [ ("T1", 1) ]
    ~path:"lib/homastack/homa.ml" "let quantum = Random.int 5792";
  (* The observability plane must observe virtual time only: a wall clock
     in an alert timestamp or flight dump would break byte-identical
     same-seed replays. *)
  check_diags "wall clock flagged under lib/nkobs/"
    [ ("T1", 1) ]
    ~path:"lib/nkobs/nkobs.ml" "let stamp = Unix.gettimeofday ()";
  (* An anonymous top-level binding is a pseudo-function of its own. *)
  check_diags "Random.self_init flagged" [ ("T1", 1) ] "let () = Random.self_init ()";
  check_diags "seeded Nkutil.Rng is the sanctioned source" []
    "let r = Nkutil.Rng.create ~seed:7\nlet x = Nkutil.Rng.int r 5"

let t1_two_hop () =
  check_diags "two-hop chain flags the helper and its caller"
    [ ("T1", 1); ("T1", 2) ]
    ("let helper () = Sys.time ()\n" ^ "let outer () = helper () +. 1.0\n"
   ^ "let clean x = x + 1\n");
  check_diags "clean unit is silent" [] "let f x = x + 1\nlet g () = f 2\n"

let t1_function_as_value () =
  check_diags "taint follows a function passed as a value"
    [ ("T1", 1); ("T1", 2); ("T1", 3) ]
    ("let helper () = Sys.time ()\n" ^ "let by_value = [ helper ]\n"
   ^ "let user () = List.hd by_value\n")

let t1_random () =
  check_diags "ambient Random taints transitively"
    [ ("T1", 1); ("T1", 2) ]
    "let roll () = Random.int 6\nlet pick xs = List.nth xs (roll ())\n"

let t1_waiver () =
  (* The waiver covers exactly its function: callers still reach the source
     and must be waived (or fixed) on their own. *)
  check_diags "nondet-ok waives the marked binding only"
    [ ("T1", 3) ]
    ("(* nkscope: nondet-ok *)\n" ^ "let helper () = Sys.time ()\n"
   ^ "let outer () = helper ()\n")

(* ---- D2: order-sensitive Hashtbl iteration ---------------------------- *)

let d2_hashtbl_order () =
  check_diags "Hashtbl.iter flagged"
    [ ("D2", 1) ]
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl";
  check_diags "Hashtbl.fold flagged"
    [ ("D2", 1) ]
    "let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "Hashtbl.iter flagged under test/" ~path:"test/fixture.ml"
    [ ("D2", 1) ]
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl";
  check_diags "Det_tbl replacement is silent" []
    "let f tbl = Nkutil.Det_tbl.iter ~cmp:Int.compare (fun _ _ -> ()) tbl";
  check_diags "ordered-ok waiver on the preceding line" []
    "(* nkscope: ordered-ok *)\nlet f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "waiver only covers its own site"
    [ ("D2", 4) ]
    "(* nkscope: ordered-ok *)\n\
     let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0\n\
     \n\
     let g tbl = Hashtbl.iter (fun _ _ -> ()) tbl"

(* ---- D3: bare polymorphic compare ------------------------------------- *)

let d3_poly_compare () =
  check_diags "Array.sort compare flagged"
    [ ("D3", 1) ]
    "let s a = Array.sort compare a";
  check_diags "Stdlib.compare as argument flagged"
    [ ("D3", 1) ]
    "let s l = List.sort Stdlib.compare l";
  check_diags "compare as a value flagged under bin/" ~path:"bin/fixture.ml"
    [ ("D3", 1) ]
    "let s a = Array.sort compare a";
  check_diags "direct application is not the D3 target" [] "let c = compare 1 2";
  check_diags "monomorphic comparator is silent" []
    "let s l = List.sort Int.compare l";
  check_diags "a local compare shadow is not Stdlib.compare" []
    "let compare = Int.compare\nlet s a = Array.sort compare a"

(* ---- D4: Obj.magic and exception swallowing --------------------------- *)

let d4_obj_magic () =
  check_diags "Obj.magic flagged" [ ("D4", 1) ] "let f x = Obj.magic x";
  check_diags "typed dummy is silent" [] "let f d n = Array.make n d"

let d4_swallow () =
  check_diags "try ... with _ flagged" [ ("D4", 1) ] "let f g = try g () with _ -> ()";
  check_diags "specific exception is silent" []
    "let f g = try g () with Not_found -> ()";
  check_diags "swallow-ok waiver" []
    "let f g = try g () with _ -> () (* nkscope: swallow-ok *)"

(* ---- P1: NQE wire-protocol invariants --------------------------------- *)

let p1_good =
  "type op = Socket | Close\n\
   let op_to_byte = function Socket -> 1 | Close -> 2\n\
   let op_of_byte = function 1 -> Some Socket | 2 -> Some Close | _ -> None\n\
   let size_bytes = 12\n\
   let encode_into t buf ~pos =\n\
  \  Bytes.set_uint8 buf pos t;\n\
  \  Bytes.set_int32_le buf (pos + 8) 0l\n"

let p1_bad =
  "type op = Socket | Close | Ev_err\n\
   let op_to_byte = function Socket -> 1 | Close -> 2 | Ev_err -> 2\n\
   let op_of_byte = function 1 -> Some Socket | 2 -> Some Close | _ -> None\n\
   let size_bytes = 16\n\
   let encode_into t buf ~pos =\n\
  \  Bytes.set_uint8 buf pos t;\n\
  \  Bytes.set_int64_le buf (pos + 4) 0L\n"

let p1_wire () =
  check_diags "consistent mini-codec is silent" ~path:"lib/core/nqe.ml" [] p1_good;
  check_diags "inconsistent codec: duplicate byte, missing decode arm, wrong span"
    ~path:"lib/core/nqe.ml"
    [ ("P1", 2); ("P1", 3); ("P1", 5) ]
    p1_bad;
  check_diags "P1 only applies to the real codec file" [] p1_bad

(* ---- H1: full NQE decode on the datapath ------------------------------ *)

let h1_hot_path_decode () =
  check_diags "Nqe.decode flagged in a hot-path module"
    ~path:"lib/core/coreengine.ml"
    [ ("H1", 1) ]
    "let f raw = Nqe.decode raw";
  check_diags "Nqe.decode_from flagged too" ~path:"lib/core/nk_device.ml"
    [ ("H1", 1) ]
    "let f raw = Nqe.decode_from raw 0";
  check_diags "decode-ok waiver silences the line below it"
    ~path:"lib/core/guestlib.ml" []
    "(* nkscope: decode-ok *)\nlet f raw = Nqe.decode raw";
  check_diags "View accessors are the sanctioned idiom"
    ~path:"lib/core/coreengine.ml" []
    "let f raw = Nqe.View.qset raw";
  check_diags "full decode is fine off the hot path"
    ~path:"lib/experiments/fig11_nqe_switch.ml" []
    "let f raw = Nqe.decode raw";
  (* Same basename outside lib/core (e.g. a test fixture) is not hot path. *)
  check_diags "hot-path basenames only match under core/"
    ~path:"test/coreengine.ml" []
    "let f raw = Nqe.decode raw"

(* ---- S1: span stage begin/end pairing --------------------------------- *)

let s1_span_pairing () =
  let opener =
    unit_of ~path:"lib/core/a.ml" ~name:"A"
      "let f spans id = Nkspan.begin_stage spans ~id ~component:\"dev\" \"ring\""
  in
  let closer =
    unit_of ~path:"lib/core/b.ml" ~name:"B"
      "let g spans id = Nkspan.end_stage spans ~id \"ring\""
  in
  let check what expected units =
    Alcotest.(check (list (pair string int))) what expected (rules (S.analyze units))
  in
  (* Opener and closer in different units: aggregation pairs them up. *)
  check "cross-unit pairing is silent" [] [ opener; closer ];
  (* The same opener with no closer anywhere fires once, at the begin site. *)
  check "unmatched begin_stage fires S1" [ ("S1", 1) ] [ opener ];
  (* A closer with no opener is just as suspicious. *)
  check "unmatched end_stage fires S1" [ ("S1", 1) ] [ closer ];
  (* Non-literal stage arguments are outside the rule's scope. *)
  check "non-literal stage ignored" []
    [
      unit_of ~path:"lib/core/c.ml" ~name:"C"
        "let h spans id s = Nkspan.begin_stage spans ~id ~component:\"x\" s";
    ]

(* ---- O1: shard-ownership discipline ------------------------------------ *)

let o1_base =
  "type shard = { idx : int }\n" (* 1 *) ^ "type costs = { ce_xshard : int }\n" (* 2 *)
  ^ "type t = { conn_table : (int, int) Hashtbl.t; costs : costs }\n" (* 3 *)
  ^ "let charge_xshard t (sh : shard) = ignore sh; ignore t.costs.ce_xshard\n" (* 4 *)
  ^ "let good_add t (sh : shard) k v = charge_xshard t sh; Hashtbl.replace t.conn_table k v\n"
    (* 5 *)
  ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n" (* 6 *)
  ^ "let helper_write t k v = Hashtbl.replace t.conn_table k v\n" (* 7 *)
  ^ "let sweep t (sh : shard) k v = ignore sh; helper_write t k v\n" (* 8 *)
  ^ "let control_clear t = Hashtbl.reset t.conn_table\n" (* 9 *)

let o1_discipline () =
  (* bad_add writes from shard context without charging; helper_write has no
     shard parameter itself but is called from one (sweep), so its write is
     in shard context transitively. good_add reaches charge_xshard and
     control_clear never runs in shard context: both legal. *)
  check_diags "shard-context writes without the xshard charge are flagged"
    [ ("O1", 6); ("O1", 7) ]
    o1_base

let o1_waiver () =
  check_diags "ce-owner waives a deliberate owner-shard accessor" []
    ("type shard = { idx : int }\n" ^ "type t = { conn_table : (int, int) Hashtbl.t }\n"
   ^ "(* nkscope: ce-owner *)\n"
   ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n");
  check_diags "without the waiver the same write is flagged"
    [ ("O1", 3) ]
    ("type shard = { idx : int }\n" ^ "type t = { conn_table : (int, int) Hashtbl.t }\n"
   ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n")

(* ---- M1: migration snapshot completeness ------------------------------- *)

let m1_unsnapshotted_field () =
  (* The Tcb.t shape in miniature: a mutable field the snapshot forgets, a
     mutable field inside a record reachable through a Queue, and immutable
     fields that impose nothing. *)
  check_diags "mutable field missing from snapshot is flagged"
    [ ("M1", 2) ]
    ("type item = { mutable seq : int; tag : bool }\n" (* 1 *)
   ^ "type t = { name : string; mutable a : int; mutable missing : int; q : item Queue.t }\n"
     (* 2 *)
   ^ "let snapshot t = (t.a, t.name, Queue.fold (fun acc (i : item) -> i.seq :: acc) [] t.q)\n"
   ^ "let restore (a, name, seqs) =\n" ^ "  let q = Queue.create () in\n"
   ^ "  List.iter (fun s -> Queue.add { seq = s; tag = false } q) seqs;\n"
   ^ "  { name; a; missing = 0; q }\n")

let m1_complete () =
  check_diags "full coverage is silent" []
    ("type t = { mutable a : int; mutable b : int }\n"
   ^ "let snapshot t = (t.a, t.b)\n" ^ "let restore (a, b) = { a; b }\n")

let m1_restore_gap () =
  (* A restore that patches fields onto an externally built value must cover
     every mutable slot — here [b] is never written back. *)
  check_diags "mutable field missing from restore is flagged"
    [ ("M1", 1) ]
    ("type t = { mutable a : int; mutable b : int }\n"
   ^ "let snapshot t = (t.a, t.b)\n"
   ^ "let restore ext ((a, _b) : int * int) = let t : t = ext () in t.a <- a; t\n")

let m1_volatile_waiver () =
  check_diags "volatile waives a rebuilt-at-destination field" []
    ("type t = {\n" ^ "  mutable a : int;\n" ^ "  (* nkscope: volatile *)\n"
   ^ "  mutable missing : int;\n" ^ "}\n" ^ "let snapshot t = t.a\n"
   ^ "let restore a = { a; missing = 0 }\n")

let m1_export_import () =
  (* CC-module shape: the export/import closures must cover every mutable
     field of the local state record. *)
  check_diags "uncovered CC state field is flagged for both closures"
    [ ("M1", 2); ("M1", 2) ]
    ("type cc = { name : string; export : unit -> int; import : int -> unit }\n" (* 1 *)
   ^ "type st = { mutable cwnd : int; mutable uncovered : int }\n" (* 2 *)
   ^ "let create () =\n" ^ "  let s = { cwnd = 1; uncovered = 0 } in\n"
   ^ "  { name = \"x\"; export = (fun () -> s.cwnd); import = (fun v -> s.cwnd <- v) }\n")

(* ---- W1: waivers cannot rot -------------------------------------------- *)

let w1_stale_waivers () =
  check_diags "stale waiver is itself reported"
    [ ("W1", 1) ]
    "(* nkscope: ordered-ok *)\nlet f x = x + 1";
  check_diags "used waiver is not reported" []
    "(* nkscope: ordered-ok *)\nlet f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "unknown nklint token is reported"
    [ ("W1", 1) ]
    "(* nklint: frobnicate *)\nlet f x = x + 1";
  (* The old nklint prefix is retired: a leftover token waives nothing. *)
  check_diags "nklint: token is W1 and waives nothing"
    [ ("W1", 1); ("D2", 2) ]
    "(* nklint: ordered-ok *)\nlet f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "token quoted in a string literal is fixture text" []
    "let s = \"(* nklint: ordered-ok *)\\nlet f = Hashtbl.fold\"";
  check_diags "nkscope token outside lib/ is reported when it covers nothing"
    ~path:"bin/fixture.ml"
    [ ("W1", 1) ]
    "(* nkscope: volatile *)\nlet f x = x + 1";
  check_diags "used nkscope token under lib/ is silent" []
    "(* nkscope: nondet-ok *)\nlet t = Sys.time ()";
  check_diags "unknown nkscope token is reported anywhere"
    [ ("W1", 1) ]
    "(* nkscope: volatil *)\nlet f x = x + 1"

let w1_stale_and_unknown () =
  check_diags "stale waiver is reported" [ ("W1", 1) ]
    "(* nkscope: ce-owner *)\nlet f x = x + 1\n";
  check_diags "unknown token is reported" [ ("W1", 1) ]
    "(* nkscope: bogus *)\nlet f x = x + 1\n";
  check_diags "token inside a string literal is fixture text, not a waiver" []
    "let s = \"(* nkscope: volatile *)\"\n"

(* ---- JSON output ------------------------------------------------------- *)

let json_format () =
  let d = { S.file = "lib/a.ml"; line = 3; col = 7; rule = "O1"; msg = "say \"hi\"\n" } in
  Alcotest.(check string)
    "escaping"
    "{\"file\":\"lib/a.ml\",\"line\":3,\"col\":7,\"rule\":\"O1\",\"msg\":\"say \\\"hi\\\"\\n\"}"
    (S.to_json d);
  Alcotest.(check string) "empty array" "[]" (S.to_json_array [])

let json_output () =
  let d rule line = { S.file = "lib/a.ml"; line; col = 0; rule; msg = "m" } in
  Alcotest.(check string)
    "one object per diagnostic, in order"
    "[{\"file\":\"lib/a.ml\",\"line\":1,\"col\":0,\"rule\":\"D2\",\"msg\":\"m\"},\n\
    \ {\"file\":\"lib/a.ml\",\"line\":2,\"col\":0,\"rule\":\"T1\",\"msg\":\"m\"}]"
    (S.to_json_array [ d "D2" 1; d "T1" 2 ])

(* ---- the real tree ----------------------------------------------------- *)

open Nkcore
module Types = Tcpstack.Types

let p1_real_codec () =
  (* The invariant holds on the actual lib/core/nqe.ml encoder: byte-level
     encode/decode round-trips inside the declared wire size. *)
  let nqe =
    Nqe.make ~op:Nqe.Ev_data ~vm_id:3 ~qset:1 ~sock:99 ~op_data:42L ~data_ptr:512
      ~size:1024 ()
  in
  let buf = Nqe.encode nqe in
  Alcotest.(check int) "wire size" Nqe.size_bytes (Bytes.length buf);
  match Nqe.decode buf with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok d -> Alcotest.(check bool) "round-trip" true (d = nqe)

let conn_dump_once ~seed =
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* Keepalive connections stay established, so the connection table is
     non-trivial when the run ends. *)
  let proto = Nkapps.Proto.Fixed { request = 64; response = 256; keepalive = true } in
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
       (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         ignore
           (Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
              {
                Nkapps.Loadgen.server = Addr.make 10 80;
                proto;
                mode =
                  Nkapps.Loadgen.Closed
                    { concurrency = 8; total = Some 200; duration = None };
                warmup = 0.0;
              })));
  Testbed.run tb ~until:10.0;
  Coreengine.dump_conn_table (Host.coreengine hosta)

let conn_table_dump_deterministic () =
  let a = conn_dump_once ~seed:4242 in
  let b = conn_dump_once ~seed:4242 in
  Alcotest.(check bool) "dump is non-trivial" true (String.length a > 0);
  Alcotest.(check string) "conn table dumps byte-identical" a b

(* The per-site rule fixtures (D*, H1, P1, S1) keep the ids they have
   always run under in the "nklint" suite, so the D1-named cases check T1
   at the direct site. *)
let site_tests =
  [
    Alcotest.test_case "D1 wall clock" `Quick d1_wall_clock;
    Alcotest.test_case "D1 ambient randomness" `Quick d1_randomness;
    Alcotest.test_case "D2 Hashtbl order" `Quick d2_hashtbl_order;
    Alcotest.test_case "D3 polymorphic compare" `Quick d3_poly_compare;
    Alcotest.test_case "D4 Obj.magic" `Quick d4_obj_magic;
    Alcotest.test_case "D4 exception swallowing" `Quick d4_swallow;
    Alcotest.test_case "P1 NQE wire invariants" `Quick p1_wire;
    Alcotest.test_case "P1 holds on the real codec" `Quick p1_real_codec;
    Alcotest.test_case "H1 hot-path NQE decode" `Quick h1_hot_path_decode;
    Alcotest.test_case "W1 stale waivers" `Quick w1_stale_waivers;
    Alcotest.test_case "JSON output" `Quick json_output;
    Alcotest.test_case "S1 span stage pairing" `Quick s1_span_pairing;
    Alcotest.test_case "conn-table dump determinism" `Quick conn_table_dump_deterministic;
  ]

let tests =
  [
    Alcotest.test_case "t1-two-hop" `Quick t1_two_hop;
    Alcotest.test_case "t1-function-as-value" `Quick t1_function_as_value;
    Alcotest.test_case "t1-random" `Quick t1_random;
    Alcotest.test_case "t1-waiver" `Quick t1_waiver;
    Alcotest.test_case "o1-discipline" `Quick o1_discipline;
    Alcotest.test_case "o1-waiver" `Quick o1_waiver;
    Alcotest.test_case "m1-unsnapshotted-field" `Quick m1_unsnapshotted_field;
    Alcotest.test_case "m1-complete" `Quick m1_complete;
    Alcotest.test_case "m1-restore-gap" `Quick m1_restore_gap;
    Alcotest.test_case "m1-volatile-waiver" `Quick m1_volatile_waiver;
    Alcotest.test_case "m1-export-import" `Quick m1_export_import;
    Alcotest.test_case "w1-stale-and-unknown" `Quick w1_stale_and_unknown;
    Alcotest.test_case "json-format" `Quick json_format;
  ]
