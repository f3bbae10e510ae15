(* Experiment driver.

   dune exec bench/main.exe                         -- every experiment table
   dune exec bench/main.exe -- e5 e8                -- selected experiments
   dune exec bench/main.exe -- --domains 4 e1       -- table runs on 4 domains
   dune exec bench/main.exe -- list                 -- experiment ids

   The tables check the paper's claims; performance is measured by the
   declared benchmark instead (rtasbench/, run with
   `sh rtasbench/run.sh`). *)

let run_tables ~domains ids =
  Experiments.domains := domains;
  let chosen =
    match ids with
    | [] -> Experiments.all
    | ids ->
        List.map
          (fun id ->
            match
              List.find_opt (fun (i, _, _) -> i = id) Experiments.all
            with
            | Some e -> e
            | None ->
                Fmt.epr "unknown experiment %S; try `list`@." id;
                exit 1)
          ids
  in
  List.iter (fun (_, _, run) -> run ()) chosen

let usage () =
  Fmt.pr "usage: main.exe [--domains N] [ids...]@.\
         \       main.exe list@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let domains = ref (Engine.default_domains ()) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            domains := d;
            parse acc rest
        | _ ->
            Fmt.epr "--domains expects a positive integer@.";
            exit 1)
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | a :: rest -> parse (a :: acc) rest
  in
  match parse [] args with
  | [ "list" ] ->
      List.iter (fun (id, doc, _) -> Fmt.pr "%-5s %s@." id doc) Experiments.all
  | ids -> run_tables ~domains:!domains ids
