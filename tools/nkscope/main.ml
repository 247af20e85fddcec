(* nkscope CLI: [nkscope [--format text|json] PATH...] analyzes every .cmt
   under the given files or directories (the main dune build's typedtree
   artifacts — no second compile) and exits nonzero on any diagnostic.
   Wired into the build as [dune build @lint] (root dune file) and
   tools/check.sh. *)

let rec walk path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left (fun acc name -> walk (Filename.concat path name) acc) acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let usage () =
  prerr_endline "usage: nkscope [--format text|json] PATH...";
  exit 2

let () =
  let format = ref `Text in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--format" :: fmt :: rest ->
        (match fmt with
        | "text" -> format := `Text
        | "json" -> format := `Json
        | _ -> usage ());
        parse rest
    | "--format" :: [] -> usage ()
    | arg :: rest ->
        roots := arg :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !roots = [] then usage ();
  let files = List.rev (List.fold_left (fun acc r -> walk r acc) [] (List.rev !roots)) in
  let units = List.filter_map Nkscope_core.unit_of_cmt files in
  let diags = Nkscope_core.analyze units in
  (match !format with
  | `Text -> List.iter (fun d -> print_endline (Nkscope_core.to_string d)) diags
  | `Json -> print_endline (Nkscope_core.to_json_array diags));
  Printf.eprintf "nkscope: %d units analyzed, %d diagnostic%s\n%!" (List.length units)
    (List.length diags)
    (if List.length diags = 1 then "" else "s");
  exit (if diags = [] then 0 else 1)
