(* Deterministic iteration over Hashtbl.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in an order that depends on
   the table's history (and, if randomization is on, the process seed), so
   any observable effect of the visit order is a reproducibility bug. These
   wrappers snapshot the bindings and sort them by key before visiting;
   nkscope rule D2 rejects bare [Hashtbl.iter]/[Hashtbl.fold] in favour of
   them (see DESIGN.md §10). *)

let pair cmp_a cmp_b (a1, b1) (a2, b2) =
  let c = cmp_a a1 a2 in
  if c <> 0 then c else cmp_b b1 b2

let triple cmp_a cmp_b cmp_c (a1, b1, c1) (a2, b2, c2) =
  let c = cmp_a a1 a2 in
  if c <> 0 then c
  else
    let c = cmp_b b1 b2 in
    if c <> 0 then c else cmp_c c1 c2

let bindings ~cmp tbl =
  (* nkscope: ordered-ok — the snapshot is sorted before anyone sees it. *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> cmp k1 k2)

let keys ~cmp tbl = List.map fst (bindings ~cmp tbl)

let iter ~cmp f tbl = List.iter (fun (k, v) -> f k v) (bindings ~cmp tbl)

let fold ~cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings ~cmp tbl)
