(* nkscope — the repo's static analyzer (DESIGN.md §10).

   nkscope loads the *typedtrees* the main dune build already produced
   (.cmt files), walks every unit once with [Tast_iterator], links the
   units into an interprocedural call graph, and enforces the determinism
   and invariant discipline the reproduction's claims rest on:

   D2  no order-sensitive [Hashtbl.iter]/[Hashtbl.fold] — use
       [Nkutil.Det_tbl] (key-sorted) or waive with (* nkscope: ordered-ok *);
   D3  no bare [Stdlib.compare] passed as a function value unless its
       instantiated type is [int]/[float]/[string]/[char]/[bool] — at any
       other type use [Int.compare]/[Float.compare]/... or a purpose-built
       comparator (a local binding named [compare] is not [Stdlib.compare]
       and is not flagged);
   D4  no [Obj.magic]; no exception-swallowing [try ... with _ ->]
       (waivers: magic-ok / swallow-ok);
   H1  no full [Nqe.decode]/[Nqe.decode_from] in the lib/core hot-path
       modules — the datapath reads fields through the zero-allocation
       [Nqe.View] accessors; a deliberate full decode is waived with
       (* nkscope: decode-ok *);
   P1  NQE wire-protocol invariants in lib/core/nqe.ml: the declared
       [size_bytes] must equal the encoder's written span, every opcode
       constructor must appear in both the encode and decode match sites,
       and encode must assign distinct byte values;
   S1  every stage literal a lib/ unit passes to [Nkspan.begin_stage] has a
       matching [end_stage] literal somewhere under lib/, and vice versa
       (aggregated across units: Nk_device opens "ring" when an NQE is
       posted, and CoreEngine and Nk_device's owner poll loop close it);
   O1  shard-ownership: CoreEngine's shared tables (conn_table, nsm_conns,
       assignment, buckets) may be written directly from shard context only
       on paths that charge the cross-shard cost — i.e. the writer reads
       [Nk_costs.ce_xshard] itself or reaches a function that does
       (charge_xshard, via the table_add/table_remove accessors). Control
       verbs running on no CE core are exempt (they never execute in shard
       context). Waiver for a deliberate owner-shard accessor:
       (* nkscope: ce-owner *).
   M1  migration snapshot completeness: in a unit with top-level [snapshot]
       and [restore] over a record [t], every mutable or stateful slot
       reachable from [t] must be read by [snapshot] and written by
       [restore]; in a CC module (a unit constructing a record with
       [export]/[import] closures), every mutable field of the local state
       record must be covered by both closures. Fields legitimately rebuilt
       at the destination carry (* nkscope: volatile *).
   T1  transitive determinism taint: taint seeded at wall-clock / ambient
       Random references propagates over the call graph (any mention of a
       function, including as a value, taints the mentioner), so a lib/
       binding that reaches Unix.gettimeofday directly or through helper
       chains is flagged. Anonymous top-level bindings
       ([let () = Random.self_init ()]) count as bindings. Waiver:
       (* nkscope: nondet-ok *).
   W1  a waiver comment that suppresses nothing, an unknown [nkscope:]
       token, or a leftover [nklint:] token is itself reported so waivers
       cannot rot. Tokens inside string literals (lint-test fixtures) are
       exempt.

   Approximations, chosen deliberately: call edges are resolved by
   (module, value) name after normalizing dune wrapper prefixes
   ([Nkcore__Coreengine] -> [Coreengine]), one level of local
   [module X = Path] aliases, and a leading [Stdlib.]. An alias chain that
   crosses another unit can drop an edge, and same-named modules in two
   libraries link to every candidate. Both err on the side the rules
   tolerate: a dropped edge loses at most a transitive diagnostic (the
   binding that names a source is always flagged), and a duplicate edge
   only widens taint/legality conservatively. *)

open Typedtree

type diag = { file : string; line : int; col : int; rule : string; msg : string }

let to_string d = Printf.sprintf "%s:%d: %s: %s" d.file d.line d.rule d.msg

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"msg\":\"%s\"}"
    (json_escape d.file) d.line d.col (json_escape d.rule) (json_escape d.msg)

let to_json_array diags =
  "[" ^ String.concat ",\n " (List.map to_json diags) ^ "]"

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let loc_line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
let loc_end_line (loc : Location.t) = loc.Location.loc_end.Lexing.pos_lnum

let loc_col (loc : Location.t) =
  loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol

let in_lib file =
  (String.length file >= 4 && String.sub file 0 4 = "lib/") || contains ~sub:"/lib/" file

let diag ~file loc rule msg = { file; line = loc_line loc; col = loc_col loc; rule; msg }

(* Apply [f] to every subexpression of [e], outermost first. *)
let iter_expr f e =
  let default = Tast_iterator.default_iterator in
  let expr self e =
    f e;
    default.expr self e
  in
  let it = { default with expr } in
  it.expr it e

(* ---- name normalization ------------------------------------------------ *)

(* [Nkcore__Coreengine] -> [Coreengine]: dune wrapper-prefixed unit names. *)
let after_dunder s =
  let n = String.length s in
  let rec find i best =
    if i + 1 >= n then best
    else if s.[i] = '_' && s.[i + 1] = '_' then find (i + 2) (Some (i + 2))
    else find (i + 1) best
  in
  match find 0 None with Some i when i < n -> String.sub s i (n - i) | _ -> s

let split_path s = List.map after_dunder (String.split_on_char '.' s)

let strip_stdlib = function "Stdlib" :: (_ :: _ as tl) -> tl | l -> l

let rec last2 = function [ m; x ] -> Some (m, x) | _ :: tl -> last2 tl | [] -> None

(* ---- per-identifier rules (D2–D4, H1) ----------------------------------- *)

(* The lib/core modules on the per-NQE datapath, where a full record decode
   is wall-clock the whole simulation pays millions of times. *)
let hot_path_modules =
  [
    "coreengine.ml"; "nk_device.ml"; "queue_set.ml"; "vswitch.ml"; "nsm_shmem.ml";
    "guestlib.ml"; "servicelib.ml";
  ]

let in_hot_path file =
  contains ~sub:"core/" file && List.mem (Filename.basename file) hot_path_modules

(* Is [ty], the instantiated type of a [Stdlib.compare] use, a comparator
   over a base type? There polymorphic compare is exactly the monomorphic
   one ([List.sort compare (l : int list)] is [Int.compare]). The type is
   read as written: an abbreviation of [int] is not expanded, so it stays
   flagged. *)
let compare_at_base_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, arg, _, _) -> (
      match Types.get_desc arg with
      | Types.Tconstr (p, [], _) ->
          List.exists (Path.same p)
            [ Predef.path_int; Predef.path_float; Predef.path_string; Predef.path_char;
              Predef.path_bool ]
      | _ -> false)
  | _ -> false

(* The rule an identifier use breaks, if any. [head] is true when the
   identifier is applied directly: [compare a b] is monomorphized at the
   call and is not what D3 flags; the bare value [List.sort compare] is.
   [ty] is the use's instantiated type. *)
let ident_rule ~file ~head ~ty p comps =
  match last2 comps with
  | Some ("Hashtbl", (("iter" | "fold") as fn)) ->
      Some
        ( "D2",
          Printf.sprintf
            "Hashtbl.%s visits entries in nondeterministic bucket order — use \
             Nkutil.Det_tbl.%s, or waive a provably order-insensitive site with (* \
             nkscope: ordered-ok *)"
            fn fn )
  | Some ("Obj", "magic") ->
      Some
        ( "D4",
          "Obj.magic defeats the type system (and corrupts flat-float-array payloads) \
           — store a typed dummy/option instead" )
  | Some ("Nqe", (("decode" | "decode_from") as fn)) when in_hot_path file ->
      Some
        ( "H1",
          Printf.sprintf
            "full Nqe.%s on the datapath allocates a record per NQE — read fields \
             through Nqe.View, or waive a deliberate full decode with (* nkscope: \
             decode-ok *)"
            fn )
  | _ when (not head) && Path.name p = "Stdlib.compare" && not (compare_at_base_type ty) ->
      Some
        ( "D3",
          "bare polymorphic compare passed as a function — use Int.compare / \
           Float.compare / String.compare or a purpose-built comparator" )
  | _ -> None

let swallow_msg =
  "try ... with _ -> swallows every exception (including Stack_overflow and \
   Assert_failure) — match the specific exceptions, or waive with (* nkscope: \
   swallow-ok *)"

(* ---- per-function / per-unit facts ------------------------------------- *)

type func = {
  f_unit : string;
  f_file : string;
  f_name : string;
  f_line : int;
  f_col : int;
  f_in_lib : bool;
  mutable f_id : int;
  mutable f_refs : string list list; (* normalized components of every ident use *)
  mutable f_field_reads : string list;
  mutable f_field_writes : string list; (* setfield targets + record-construction labels *)
  mutable f_table_writes : (string * int * int) list; (* shared-table label, line, col *)
  mutable f_shard_param : bool;
}

type type_field = { tf_name : string; tf_mut : bool; tf_type : core_type; tf_line : int }

type type_decl = {
  td_name : string;
  td_fields : type_field list; (* record labels; [] for variants/aliases *)
  td_args : core_type list; (* variant constructor args + alias manifest *)
}

(* A string literal passed to [begin_stage] ([su_begin]) or [end_stage]. *)
type stage_use = { su_file : string; su_line : int; su_stage : string; su_begin : bool }

type unit_info = {
  u_name : string;
  u_file : string;
  u_src : string; (* "" when the source text is unavailable *)
  u_in_lib : bool;
  u_funcs : func list;
  u_types : type_decl list;
  u_exports : (expression * expression) option; (* (export, import) closures *)
  u_strlits : (int * int) list; (* line ranges of waiver-bearing string literals *)
  u_local : diag list; (* D2–D4, H1, P1: decided within the unit *)
  u_stages : stage_use list; (* S1 literals; lib/ units only *)
}

(* ---- P1: NQE wire-protocol invariants ----------------------------------- *)

let int_const e =
  match e.exp_desc with Texp_constant (Asttypes.Const_int n) -> Some n | _ -> None

let top_binding (str : structure) name =
  List.find_map
    (fun it ->
      match it.str_desc with
      | Tstr_value (_, vbs) ->
          List.find_opt
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (_, n) -> n.Asttypes.txt = name
              | _ -> false)
            vbs
      | _ -> None)
    str.str_items

(* (pattern, result) arms of [function ...] or [fun x -> match x with ...]. *)
let fn_arms e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_rhs = { exp_desc = Texp_match (_, cases, _); _ }; _ } ]; _ }
    ->
      Some
        (List.filter_map
           (fun c ->
             match split_pattern c.c_lhs with Some p, _ -> Some (p, c.c_rhs) | None, _ -> None)
           cases)
  | Texp_function { cases; _ } -> Some (List.map (fun c -> (c.c_lhs, c.c_rhs)) cases)
  | _ -> None

(* Width in bytes of a [Bytes.set_*] writer, from its name. *)
let set_width = function
  | "set_uint8" | "set_int8" -> Some 1
  | "set_uint16_le" | "set_uint16_be" | "set_uint16_ne" | "set_int16_le" | "set_int16_be"
  | "set_int16_ne" ->
      Some 2
  | "set_int32_le" | "set_int32_be" | "set_int32_ne" -> Some 4
  | "set_int64_le" | "set_int64_be" | "set_int64_ne" -> Some 8
  | _ -> None

let is_pos e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Ident.name id = "pos"
  | _ -> false

(* Offset of the write position relative to [pos]: [pos] itself or
   [pos + k]. *)
let rel_offset e =
  match e.exp_desc with
  | _ when is_pos e -> Some 0
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some x); (_, Some k) ])
    when Path.name p = "Stdlib.+" && is_pos x ->
      int_const k
  | _ -> None

(* Max (offset + width) over every Bytes.set_* in the encoder body. *)
let encoder_span body =
  let span = ref None in
  iter_expr
    (fun e ->
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          let positional =
            List.filter_map
              (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
              args
          in
          match (last2 (split_path (Path.name p)), positional) with
          | Some ("Bytes", setter), _ :: pos :: _ -> (
              match (set_width setter, rel_offset pos) with
              | Some w, Some off ->
                  let s = off + w in
                  span := Some (match !span with None -> s | Some m -> Int.max m s)
              | _ -> ())
          | _ -> ())
      | _ -> ())
    body;
  !span

let p1_diags ~file (str : structure) =
  let diags = ref [] in
  let add loc msg = diags := diag ~file loc "P1" msg :: !diags in
  let missing what loc = add loc (Printf.sprintf "expected %s in the NQE codec" what) in
  let top_loc = match str.str_items with it :: _ -> it.str_loc | [] -> Location.none in
  let op_ctors =
    List.find_map
      (fun it ->
        match it.str_desc with
        | Tstr_type (_, decls) ->
            List.find_map
              (fun d ->
                match d.typ_kind with
                | Ttype_variant cds when d.typ_name.Asttypes.txt = "op" ->
                    Some (List.map (fun cd -> cd.cd_name.Asttypes.txt) cds)
                | _ -> None)
              decls
        | _ -> None)
      str.str_items
  in
  (match op_ctors with
  | None -> missing "a [type op] variant declaration" top_loc
  | Some ctors -> (
      (* encode side: op_to_byte must pattern-match every constructor and
         assign distinct byte values *)
      (match top_binding str "op_to_byte" with
      | None -> missing "an [op_to_byte] encode match" top_loc
      | Some vb -> (
          match fn_arms vb.vb_expr with
          | None -> add vb.vb_loc "op_to_byte is not a single-match function"
          | Some arms ->
              let wildcard (p, _) = match p.pat_desc with Tpat_any -> true | _ -> false in
              if not (List.exists wildcard arms) then (
                let seen =
                  List.filter_map
                    (fun (p, _) ->
                      match p.pat_desc with
                      | Tpat_construct (_, cd, _, _) -> Some cd.Types.cstr_name
                      | _ -> None)
                    arms
                in
                List.iter
                  (fun c ->
                    if not (List.mem c seen) then
                      add vb.vb_loc
                        (Printf.sprintf "opcode %s missing from encode match (op_to_byte)" c))
                  ctors);
              let rec dup = function
                | a :: (b :: _ as tl) -> if a = b then Some a else dup tl
                | _ -> None
              in
              match dup (List.sort Int.compare (List.filter_map (fun (_, e) -> int_const e) arms))
              with
              | Some b ->
                  add vb.vb_loc (Printf.sprintf "encode match assigns byte %d to two opcodes" b)
              | None -> ()));
      (* decode side: op_of_byte must produce every constructor *)
      match top_binding str "op_of_byte" with
      | None -> missing "an [op_of_byte] decode match" top_loc
      | Some vb -> (
          match fn_arms vb.vb_expr with
          | None -> add vb.vb_loc "op_of_byte is not a single-match function"
          | Some arms ->
              let produced = ref [] in
              List.iter
                (fun (_, rhs) ->
                  iter_expr
                    (fun e ->
                      match e.exp_desc with
                      | Texp_construct (_, cd, _) ->
                          produced := cd.Types.cstr_name :: !produced
                      | _ -> ())
                    rhs)
                arms;
              List.iter
                (fun c ->
                  if not (List.mem c !produced) then
                    add vb.vb_loc
                      (Printf.sprintf "opcode %s missing from decode match (op_of_byte)" c))
                ctors)));
  (* wire size: declared size_bytes = encoder's written span *)
  (match (top_binding str "size_bytes", top_binding str "encode_into") with
  | None, _ -> missing "a [size_bytes] wire-size constant" top_loc
  | _, None -> missing "an [encode_into] writer" top_loc
  | Some size_vb, Some enc_vb -> (
      match (int_const size_vb.vb_expr, encoder_span enc_vb.vb_expr) with
      | None, _ -> add size_vb.vb_loc "size_bytes is not an integer literal"
      | _, None -> add enc_vb.vb_loc "encode_into contains no analyzable Bytes.set_* write"
      | Some declared, Some span ->
          if declared <> span then
            add enc_vb.vb_loc
              (Printf.sprintf "encoder writes a %d-byte span but size_bytes declares %d" span
                 declared)));
  !diags

(* ---- typedtree extraction ---------------------------------------------- *)

let shared_tables = [ "conn_table"; "nsm_conns"; "assignment"; "buckets" ]

let hashtbl_mutators =
  [ "replace"; "remove"; "add"; "reset"; "clear"; "filter_map_inplace" ]

(* Does a parameter's inferred type mention the [shard] record anywhere
   outside an arrow (a callback taking a shard does not put its taker in
   shard context)? *)
let type_mentions_shard ty =
  let rec go visited ty =
    let id = Types.get_id ty in
    if List.mem id visited then false
    else
      let visited = id :: visited in
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) ->
          Path.last p = "shard" || List.exists (go visited) args
      | Types.Ttuple l -> List.exists (go visited) l
      | Types.Tpoly (t, _) -> go visited t
      | _ -> false
  in
  go [] ty

(* Walk the curried-lambda spine of a binding, checking every parameter. *)
let rec spine_has_shard_param e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.exists (fun c -> type_mentions_shard c.c_lhs.pat_type) cases
      || (match cases with [ { c_rhs; _ } ] -> spine_has_shard_param c_rhs | _ -> false)
  | _ -> false

let unit_of_structure ~file ~src ~name (str : structure) =
  let lib = in_lib file in
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  (* Pass 1: local [module X = Path] aliases, collected up front so
     references through them resolve regardless of declaration order. *)
  let rec alias_pass items =
    List.iter
      (fun it ->
        match it.str_desc with
        | Tstr_module mb -> (
            match (mb.mb_name.Asttypes.txt, mb.mb_expr.mod_desc) with
            | Some n, Tmod_ident (p, _) ->
                Hashtbl.replace aliases n (split_path (Path.name p))
            | _, Tmod_structure s -> alias_pass s.str_items
            | _, Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
                alias_pass s.str_items
            | _ -> ())
        | _ -> ())
      items
  in
  alias_pass str.str_items;
  let normalize path =
    let comps = split_path (Path.name path) in
    let comps =
      match comps with
      | hd :: tl -> (
          match Hashtbl.find_opt aliases hd with
          | Some full -> full @ tl
          | None -> comps)
      | [] -> []
    in
    strip_stdlib comps
  in
  let funcs = ref [] in
  let types = ref [] in
  let exports = ref None in
  let strlits = ref [] in
  let local = ref [] in
  let stages = ref [] in
  let add_local loc rule msg = local := diag ~file loc rule msg :: !local in
  (* Identifiers in function-head position (see [ident_rule]). *)
  let heads = Hashtbl.create 64 in
  let scan_expr (f : func) e0 =
    let default = Tast_iterator.default_iterator in
    let expr self e =
      (match e.exp_desc with
      | Texp_ident (p, _, _) ->
          let comps = normalize p in
          f.f_refs <- comps :: f.f_refs;
          Option.iter
            (fun (rule, msg) -> add_local e.exp_loc rule msg)
            (ident_rule ~file ~head:(Hashtbl.mem heads e.exp_loc) ~ty:e.exp_type p comps)
      | Texp_try (_, cases) ->
          List.iter
            (fun c ->
              match c.c_lhs.pat_desc with
              | Tpat_any -> add_local c.c_lhs.pat_loc "D4" swallow_msg
              | _ -> ())
            cases
      | Texp_field (_, _, ld) -> f.f_field_reads <- ld.Types.lbl_name :: f.f_field_reads
      | Texp_setfield (_, _, ld, _) ->
          f.f_field_writes <- ld.Types.lbl_name :: f.f_field_writes
      | Texp_constant (Asttypes.Const_string (s, _, _))
        when contains ~sub:"nkscope:" s || contains ~sub:"nklint:" s ->
          strlits := (loc_line e.exp_loc, loc_end_line e.exp_loc) :: !strlits
      | Texp_record { fields; _ } ->
          let labels =
            Array.to_list fields
            |> List.filter_map (fun (ld, def) ->
                   match def with
                   | Overridden (_, fe) -> Some (ld.Types.lbl_name, fe)
                   | Kept _ -> None)
          in
          List.iter
            (fun (l, _) -> f.f_field_writes <- l :: f.f_field_writes)
            labels;
          if !exports = None then (
            match (List.assoc_opt "export" labels, List.assoc_opt "import" labels) with
            | Some ex, Some im -> exports := Some (ex, im)
            | _ -> ())
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_loc; _ }, args) -> (
          Hashtbl.replace heads exp_loc ();
          match normalize p with
          | [ "Hashtbl"; m ] when List.mem m hashtbl_mutators -> (
              let first_pos =
                List.find_map
                  (fun (lbl, a) ->
                    match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
                  args
              in
              match first_pos with
              | Some { exp_desc = Texp_field (_, _, ld); exp_loc; _ }
                when List.mem ld.Types.lbl_name shared_tables ->
                  f.f_table_writes <-
                    (ld.Types.lbl_name, loc_line exp_loc, loc_col exp_loc)
                    :: f.f_table_writes
              | _ -> ())
          | comps when lib -> (
              match List.rev comps with
              | ("begin_stage" | "end_stage") as fn :: _ ->
                  List.iter
                    (function
                      | ( Asttypes.Nolabel,
                          Some
                            { exp_desc = Texp_constant (Asttypes.Const_string (s, _, _)); exp_loc; _ }
                        ) ->
                          stages :=
                            {
                              su_file = file;
                              su_line = loc_line exp_loc;
                              su_stage = s;
                              su_begin = fn = "begin_stage";
                            }
                            :: !stages
                      | _ -> ())
                    args
              | _ -> ())
          | _ -> ())
      | _ -> ());
      default.expr self e
    in
    let it = { default with expr } in
    it.expr it e0
  in
  let add_func fname loc expr =
    let f =
      {
        f_unit = name;
        f_file = file;
        f_name = fname;
        f_line = loc_line loc;
        f_col = loc_col loc;
        f_in_lib = lib;
        f_id = -1;
        f_refs = [];
        f_field_reads = [];
        f_field_writes = [];
        f_table_writes = [];
        f_shard_param = spine_has_shard_param expr;
      }
    in
    scan_expr f expr;
    funcs := f :: !funcs
  in
  let add_type (d : type_declaration) =
    let fields_of lds =
      List.map
        (fun ld ->
          {
            tf_name = ld.ld_name.Asttypes.txt;
            tf_mut = ld.ld_mutable = Asttypes.Mutable;
            tf_type = ld.ld_type;
            tf_line = loc_line ld.ld_loc;
          })
        lds
    in
    let td =
      match d.typ_kind with
      | Ttype_record lds ->
          { td_name = d.typ_name.Asttypes.txt; td_fields = fields_of lds; td_args = [] }
      | Ttype_variant ctors ->
          let args =
            List.concat_map
              (fun c ->
                match c.cd_args with
                | Cstr_tuple l -> l
                | Cstr_record lds -> List.map (fun ld -> ld.ld_type) lds)
              ctors
          in
          { td_name = d.typ_name.Asttypes.txt; td_fields = []; td_args = args }
      | _ ->
          {
            td_name = d.typ_name.Asttypes.txt;
            td_fields = [];
            td_args = (match d.typ_manifest with Some t -> [ t ] | None -> []);
          }
    in
    types := td :: !types
  in
  (* Anonymous bindings ([let () = ...], top-level expressions) become
     pseudo-functions so every expression in the unit is scanned and T1
     sees a nondeterminism source that no named binding mentions. *)
  let anonymous = "top-level expression" in
  let rec item_pass items =
    List.iter
      (fun it ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (_, n) -> add_func n.Asttypes.txt vb.vb_pat.pat_loc vb.vb_expr
                | _ -> add_func anonymous vb.vb_pat.pat_loc vb.vb_expr)
              vbs
        | Tstr_eval (e, _) -> add_func anonymous e.exp_loc e
        | Tstr_type (_, decls) -> List.iter add_type decls
        | Tstr_module mb -> module_pass mb.mb_expr
        | Tstr_recmodule mbs -> List.iter (fun mb -> module_pass mb.mb_expr) mbs
        | Tstr_include incl -> module_pass incl.incl_mod
        | _ -> ())
      items
  and module_pass me =
    match me.mod_desc with
    | Tmod_structure s -> item_pass s.str_items
    | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) | Tmod_apply_unit me ->
        module_pass me
    | Tmod_apply (fn, arg, _) ->
        module_pass fn;
        module_pass arg
    | Tmod_ident _ | Tmod_unpack _ -> ()
  in
  item_pass str.str_items;
  if lib && Filename.basename file = "nqe.ml" then local := p1_diags ~file str @ !local;
  {
    u_name = name;
    u_file = file;
    u_src = src;
    u_in_lib = lib;
    u_funcs = List.rev !funcs;
    u_types = List.rev !types;
    u_exports = !exports;
    u_strlits = !strlits;
    u_local = !local;
    u_stages = List.rev !stages;
  }

(* ---- waivers ----------------------------------------------------------- *)

(* The one waiver table: [(* nkscope: <word> *)] suppresses a diagnostic of
   the paired rule on the same or the next line. *)
let waiver_tokens =
  [
    ("ordered-ok", "D2"); ("magic-ok", "D4"); ("swallow-ok", "D4"); ("decode-ok", "H1");
    ("ce-owner", "O1"); ("volatile", "M1"); ("nondet-ok", "T1");
  ]

type waiver = { w_line : int; w_rule : string; w_token : string; mutable w_used : bool }

let token_word line marker =
  (* The word following [marker] on [line], or "" — used to catch unknown
     waiver tokens like (* nkscope: volatil *). *)
  let n = String.length line and m = String.length marker in
  let rec find i = if i + m > n then None else if String.sub line i m = marker then Some (i + m) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i ->
      let i = ref i in
      while !i < n && line.[!i] = ' ' do incr i done;
      let j = ref !i in
      while
        !j < n
        && (match line.[!j] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
      do
        incr j
      done;
      Some (String.sub line !i (!j - !i))

let scan_waivers u =
  (* (known waivers, W1 diags for unknown tokens). Lines inside
     waiver-bearing string literals are fixture text, not waivers. *)
  let in_strlit line =
    List.exists (fun (a, b) -> line >= a && line <= b) u.u_strlits
  in
  let waivers = ref [] and unknown = ref [] in
  let w1 line msg = unknown := { file = u.u_file; line; col = 0; rule = "W1"; msg } :: !unknown in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      if not (in_strlit lnum) then (
        (match token_word line "nkscope:" with
        | None | Some "" -> ()
        | Some word -> (
            let token = "nkscope: " ^ word in
            match List.assoc_opt word waiver_tokens with
            | Some rule ->
                waivers := { w_line = lnum; w_rule = rule; w_token = token; w_used = false } :: !waivers
            | None -> w1 lnum (Printf.sprintf "unknown nkscope waiver token %S" token)));
        match token_word line "nklint:" with
        | None | Some "" -> ()
        | Some word ->
            w1 lnum
              (Printf.sprintf "unknown waiver token %S — waivers take the nkscope: prefix"
                 ("nklint: " ^ word))))
    (String.split_on_char '\n' u.u_src);
  (List.rev !waivers, List.rev !unknown)

(* ---- M1: snapshot / export completeness -------------------------------- *)

let builtin_mutable =
  [ "Queue.t"; "Hashtbl.t"; "Buffer.t"; "Bytes.t"; "bytes"; "ref"; "array"; "Atomic.t"; "Stack.t" ]

let builtin_immutable =
  [ "int"; "float"; "bool"; "char"; "string"; "unit"; "int32"; "int64"; "nativeint";
    "Int32.t"; "Int64.t"; "String.t" ]

let transparent = [ "option"; "list"; "Option.t"; "List.t" ]

let find_decl u n = List.find_opt (fun td -> td.td_name = n) u.u_types

(* A type is "stateful" if a value of it can carry mutable state the
   migration snapshot would have to move: a builtin mutable container, a
   local type with (transitively) mutable content, or — conservatively —
   any abstract type from another module. Arrows are opaque and stateless
   (closures are rebuilt, not moved). *)
let ty_stateful u ct =
  let rec go visited ct =
    match ct.ctyp_desc with
    | Ttyp_arrow _ -> false
    | Ttyp_tuple l -> List.exists (go visited) l
    | Ttyp_poly (_, t) -> go visited t
    | Ttyp_constr (p, _, args) ->
        let pname = String.concat "." (strip_stdlib (split_path (Path.name p))) in
        if List.mem pname builtin_mutable then true
        else if List.mem pname builtin_immutable then false
        else if List.mem pname transparent then List.exists (go visited) args
        else if String.contains (Path.name p) '.' then true (* external abstract *)
        else (
          match find_decl u (Path.last p) with
          | Some td when not (List.mem td.td_name visited) ->
              let visited = td.td_name :: visited in
              List.exists (fun tf -> tf.tf_mut || go visited tf.tf_type) td.td_fields
              || List.exists (go visited) td.td_args
          | Some _ -> false
          | None -> true)
    | _ -> false
  in
  go [] ct

(* Local record decls reachable from [td]'s fields through local types
   (skipping arrows): their mutable fields are migration slots too
   (e.g. tcb's [retx_item] inside [retxq : retx_item Queue.t]). *)
let reachable_records u td0 =
  let reached = ref [] in
  let rec walk_ty ct =
    match ct.ctyp_desc with
    | Ttyp_arrow _ -> ()
    | Ttyp_tuple l -> List.iter walk_ty l
    | Ttyp_poly (_, t) -> walk_ty t
    | Ttyp_constr (p, _, args) ->
        List.iter walk_ty args;
        if not (String.contains (Path.name p) '.') then (
          match find_decl u (Path.last p) with
          | Some td when not (List.exists (fun r -> r.td_name = td.td_name) !reached) ->
              reached := td :: !reached;
              List.iter (fun tf -> walk_ty tf.tf_type) td.td_fields;
              List.iter walk_ty td.td_args
          | _ -> ())
    | _ -> ()
  in
  List.iter (fun tf -> walk_ty tf.tf_type) td0.td_fields;
  List.filter (fun td -> td.td_name <> td0.td_name && td.td_fields <> []) !reached

(* Field reads/writes of [roots] plus every same-unit function they reach
   (snapshot/restore may delegate to helpers like [arm_rto]). *)
let unit_closure u roots =
  let local f = List.filter (fun g -> g.f_name = f) u.u_funcs in
  let seen = ref [] in
  let rec visit f =
    if not (List.memq f !seen) then (
      seen := f :: !seen;
      List.iter
        (fun comps ->
          match comps with [ x ] -> List.iter visit (local x) | _ -> ())
        f.f_refs)
  in
  List.iter visit roots;
  !seen

let m1_unit u =
  let diags = ref [] in
  let add line name what where =
    diags :=
      {
        file = u.u_file;
        line;
        col = 0;
        rule = "M1";
        msg =
          Printf.sprintf
            "%s holds mutable state but is not %s by %s — migration would silently drop \
             it; cover it or waive a rebuilt-at-destination field with (* nkscope: \
             volatile *)"
            name what where;
      }
      :: !diags
  in
  (* Mode A: top-level snapshot/restore over record [t]. *)
  (match
     ( find_decl u "t",
       List.filter (fun f -> f.f_name = "snapshot") u.u_funcs,
       List.filter (fun f -> f.f_name = "restore") u.u_funcs )
   with
  | Some trec, (_ :: _ as snaps), (_ :: _ as rests) when trec.td_fields <> [] ->
      let reads =
        List.concat_map (fun f -> f.f_field_reads) (unit_closure u snaps)
      in
      let writes =
        List.concat_map (fun f -> f.f_field_writes) (unit_closure u rests)
      in
      let check rec_name tf =
        if not (List.mem tf.tf_name reads) then
          add tf.tf_line (rec_name ^ "." ^ tf.tf_name) "read" "[snapshot]";
        if not (List.mem tf.tf_name writes) then
          add tf.tf_line (rec_name ^ "." ^ tf.tf_name) "written" "[restore]"
      in
      List.iter
        (fun tf -> if tf.tf_mut || ty_stateful u tf.tf_type then check "t" tf)
        trec.td_fields;
      List.iter
        (fun td ->
          List.iter (fun tf -> if tf.tf_mut then check td.td_name tf) td.td_fields)
        (reachable_records u trec)
  | _ -> ());
  (* Mode B: CC-style export/import closures over local state records. *)
  (match u.u_exports with
  | Some (ex, im) ->
      let er = ref [] and iw = ref [] in
      iter_expr
        (fun e ->
          match e.exp_desc with Texp_field (_, _, ld) -> er := ld.Types.lbl_name :: !er | _ -> ())
        ex;
      iter_expr
        (fun e ->
          match e.exp_desc with
          | Texp_setfield (_, _, ld, _) -> iw := ld.Types.lbl_name :: !iw
          | _ -> ())
        im;
      List.iter
        (fun td ->
          if td.td_name <> "t" then
            List.iter
              (fun tf ->
                if tf.tf_mut then (
                  if not (List.mem tf.tf_name !er) then
                    add tf.tf_line (td.td_name ^ "." ^ tf.tf_name) "read" "the [export] closure";
                  if not (List.mem tf.tf_name !iw) then
                    add tf.tf_line (td.td_name ^ "." ^ tf.tf_name) "written" "the [import] closure"))
              td.td_fields)
        (List.filter (fun td -> td.td_fields <> []) u.u_types)
  | None -> ());
  List.rev !diags

(* ---- O1 / T1: interprocedural graph rules ------------------------------ *)

let taint_source comps =
  match comps with
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      Some (String.concat "." comps)
  | "Random" :: _ :: _ -> Some (String.concat "." comps)
  | _ -> None

let graph_diags units =
  let funcs = Array.of_list (List.concat_map (fun u -> u.u_funcs) units) in
  let n = Array.length funcs in
  Array.iteri (fun i f -> f.f_id <- i) funcs;
  let index : (string * string, int list) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i f ->
      let key = (f.f_unit, f.f_name) in
      Hashtbl.replace index key (i :: (try Hashtbl.find index key with Not_found -> [])))
    funcs;
  let resolve f comps =
    let key =
      match comps with [ x ] -> Some (f.f_unit, x) | l -> last2 l
    in
    match key with
    | None -> []
    | Some k -> ( try Hashtbl.find index k with Not_found -> [])
  in
  let succs = Array.make n [] and preds = Array.make n [] in
  Array.iteri
    (fun i f ->
      let out =
        List.sort_uniq Int.compare (List.concat_map (resolve f) f.f_refs)
      in
      let out = List.filter (fun j -> j <> i) out in
      succs.(i) <- out;
      List.iter (fun j -> preds.(j) <- i :: preds.(j)) out)
    funcs;
  let propagate seeds edges =
    let mark = Array.make n false in
    let q = Queue.create () in
    List.iter
      (fun i ->
        if not mark.(i) then (
          mark.(i) <- true;
          Queue.add i q))
      seeds;
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      List.iter
        (fun j ->
          if not mark.(j) then (
            mark.(j) <- true;
            Queue.add j q))
        edges.(i)
    done;
    mark
  in
  let ids p =
    Array.to_list funcs |> List.filter p |> List.map (fun f -> f.f_id)
  in
  (* O1: shard context flows caller -> callee from shard-parameter functions;
     cross-shard legality flows callee -> caller from ce_xshard readers. *)
  let shard_ctx = propagate (ids (fun f -> f.f_shard_param)) succs in
  let xshard =
    propagate (ids (fun f -> List.mem "ce_xshard" f.f_field_reads)) preds
  in
  let o1 =
    Array.to_list funcs
    |> List.concat_map (fun f ->
           if f.f_table_writes <> [] && shard_ctx.(f.f_id) && not xshard.(f.f_id) then
             List.rev_map
               (fun (label, line, col) ->
                 {
                   file = f.f_file;
                   line;
                   col;
                   rule = "O1";
                   msg =
                     Printf.sprintf
                       "direct write to shared table [%s] in [%s], which runs in shard \
                        context but never charges Nk_costs.ce_xshard — route it through \
                        the table accessors, or waive a deliberate owner-shard accessor \
                        with (* nkscope: ce-owner *)"
                       label f.f_name;
                 })
               f.f_table_writes
           else [])
  in
  (* T1: BFS from direct nondeterminism references backwards to callers,
     recording a shortest witness chain per function. *)
  let via = Array.make n None in
  let q = Queue.create () in
  Array.iter
    (fun f ->
      match List.find_map taint_source f.f_refs with
      | Some src when via.(f.f_id) = None ->
          via.(f.f_id) <- Some src;
          Queue.add f.f_id q
      | _ -> ())
    funcs;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let chain =
      match via.(i) with Some c -> funcs.(i).f_name ^ " -> " ^ c | None -> assert false
    in
    List.iter
      (fun j ->
        if via.(j) = None then (
          via.(j) <- Some chain;
          Queue.add j q))
      preds.(i)
  done;
  let t1 =
    Array.to_list funcs
    |> List.filter_map (fun f ->
           match via.(f.f_id) with
           | Some chain when f.f_in_lib ->
               Some
                 {
                   file = f.f_file;
                   line = f.f_line;
                   col = f.f_col;
                   rule = "T1";
                   msg =
                     Printf.sprintf
                       "[%s] reaches a nondeterminism source (%s) — take time from \
                        Sim.Engine / randomness from Nkutil.Rng (wall clock belongs in \
                        perfbench/ only), or waive with (* nkscope: nondet-ok *)"
                       f.f_name chain;
                 }
           | _ -> None)
  in
  o1 @ t1

(* ---- S1: span stage begin/end pairing ---------------------------------- *)

(* One diagnostic per unmatched stage literal, anchored at its first use.
   [uses] spans every lib/ unit of the invocation: a begun stage with no
   closer anywhere would only ever be closed implicitly (by a later
   begin_stage or by finish), which silently reshapes the latency
   breakdown. *)
let span_pairing uses =
  let side b = List.filter (fun u -> u.su_begin = b) uses in
  let unmatched uses others fn other_fn =
    List.sort_uniq String.compare (List.map (fun u -> u.su_stage) uses)
    |> List.filter_map (fun stage ->
           if List.exists (fun u -> String.equal u.su_stage stage) others then None
           else
             let u = List.find (fun u -> String.equal u.su_stage stage) uses in
             Some
               {
                 file = u.su_file;
                 line = u.su_line;
                 col = 0;
                 rule = "S1";
                 msg =
                   Printf.sprintf "%s %S has no matching %s literal anywhere under lib/" fn
                     stage other_fn;
               })
  in
  let begins = side true and ends = side false in
  unmatched begins ends "begin_stage" "end_stage"
  @ unmatched ends begins "end_stage" "begin_stage"

(* ---- driver ------------------------------------------------------------ *)

let analyze units =
  let pre =
    List.concat_map (fun u -> u.u_local) units
    @ graph_diags units
    @ List.concat_map m1_unit (List.filter (fun u -> u.u_in_lib) units)
    @ span_pairing (List.concat_map (fun u -> u.u_stages) units)
  in
  let per_unit = List.map (fun u -> (u.u_file, scan_waivers u)) units in
  let kept =
    List.filter
      (fun d ->
        match List.assoc_opt d.file per_unit with
        | None -> true
        | Some (waivers, _) ->
            let covering =
              List.filter
                (fun w -> w.w_rule = d.rule && (w.w_line = d.line || w.w_line = d.line - 1))
                waivers
            in
            List.iter (fun w -> w.w_used <- true) covering;
            covering = [])
      pre
  in
  let w1 =
    List.concat_map
      (fun (file, (waivers, unknown)) ->
        unknown
        @ List.filter_map
            (fun w ->
              if w.w_used then None
              else
                Some
                  {
                    file;
                    line = w.w_line;
                    col = 0;
                    rule = "W1";
                    msg =
                      Printf.sprintf "stale waiver %S suppresses no %s diagnostic"
                        w.w_token w.w_rule;
                  })
            waivers)
      per_unit
  in
  List.sort compare_diag (kept @ w1)

(* ---- cmt loading ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* None for unreadable files, interfaces, and generated units (dune's
   [*.ml-gen] library and [dune__exe] alias modules): only typedtrees of
   hand-written .ml sources are analyzed. *)
let unit_of_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | ci -> (
      let file =
        match ci.Cmt_format.cmt_sourcefile with Some f -> f | None -> path
      in
      match ci.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str when Filename.check_suffix file ".ml" ->
          let name = after_dunder ci.Cmt_format.cmt_modname in
          (* cmt_builddir can be stale (dune sanitizes it), so resolve the
             source cwd-relative first and fall back to the recorded dir. *)
          let src =
            if Sys.file_exists file then read_file file
            else
              let alt = Filename.concat ci.Cmt_format.cmt_builddir file in
              if Sys.file_exists alt then read_file alt else ""
          in
          Some (unit_of_structure ~file ~src ~name str)
      | _ -> None)
