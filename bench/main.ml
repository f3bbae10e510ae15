(* Experiment driver.

   dune exec bench/main.exe                         -- every experiment table
   dune exec bench/main.exe -- e5 e8                -- selected experiments
   dune exec bench/main.exe -- --domains 4 e1       -- table runs on 4 domains
   dune exec bench/main.exe -- bechamel             -- Bechamel microbenches

   The tables check the paper's claims; performance is measured by the
   declared benchmark instead (rtasbench/, run with
   `sh rtasbench/run.sh`). *)

open Bechamel
open Toolkit

(* {1 Bechamel microbenches: one per experiment table, measuring the
   core operation that the table sweeps} *)

let run_election ~algorithm ~n ~k seed =
  ignore
    (Rtas.Election.run ~seed ~algorithm ~n ~k
       ~adversary:
         (Sim.Adversary.random_oblivious
            ~seed:(Sim.Rng.derive seed ~stream:1))
       ())

let bench_tests =
  let counter = ref 0L in
  let next () =
    counter := Int64.add !counter 1L;
    !counter
  in
  [
    (* E1: one Figure-1 GroupElect round, k = 32. *)
    Test.make ~name:"e1/ge-logstar-round-k32"
      (Staged.stage (fun () ->
           let mem = Sim.Memory.create () in
           let ge = Groupelect.Ge_logstar.create mem ~n:4096 in
           let sched =
             Sim.Sched.create ~seed:(next ())
               (Array.init 32 (fun _ ctx ->
                    if ge.Groupelect.Ge.elect ctx then 1 else 0))
           in
           Sim.Sched.run sched (Sim.Adversary.round_robin ())));
    (* E2: a full log* election, k = 256. *)
    Test.make ~name:"e2/logstar-election-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"log*" ~n:256 ~k:256 (next ())));
    (* E3: a full loglog election, k = 256. *)
    Test.make ~name:"e3/loglog-election-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"loglog" ~n:256 ~k:256 (next ())));
    (* E4: a lean RatRace election, k = 256. *)
    Test.make ~name:"e4/ratrace-lean-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"ratrace-lean" ~n:256 ~k:256 (next ())));
    (* E5: allocation cost of the lean structure (space experiment). *)
    Test.make ~name:"e5/allocate-ratrace-lean-n1024"
      (Staged.stage (fun () ->
           let mem = Sim.Memory.create () in
           ignore (Ratrace.Ratrace_lean.create mem ~n:1024)));
    (* E6: a combined election, k = 64. *)
    Test.make ~name:"e6/combined-logstar-k64"
      (Staged.stage (fun () ->
           run_election ~algorithm:"combined-log*" ~n:64 ~k:64 (next ())));
    (* E7: the covering recurrence f over all k for n = 2^16. *)
    Test.make ~name:"e7/covering-f-n65536"
      (Staged.stage (fun () ->
           ignore (Lowerbound.Covering.f ~n:65536 (65536 - 4))));
    (* E8: one 2-process TAS duel under a fixed alternating schedule. *)
    Test.make ~name:"e8/tas-duel"
      (Staged.stage (fun () ->
           let mem = Sim.Memory.create () in
           let le = Primitives.Le2.create mem in
           let tas =
             Primitives.Tas.create mem ~elect:(fun ctx ->
                 Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
           in
           let sched =
             Sim.Sched.create ~seed:(next ())
               (Array.init 2 (fun _ ctx -> Primitives.Tas.apply tas ctx))
           in
           Sim.Sched.run sched (Sim.Adversary.round_robin ())));
    (* E9: tournament election, k = 256 (the O(log n) baseline). *)
    Test.make ~name:"e9/tournament-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"tournament" ~n:256 ~k:256 (next ())));
    (* E10: single-thread cost of a multicore TAS op (no domain spawn). *)
    Test.make ~name:"e10/mc-native-tas"
      (Staged.stage
         (let rng = Random.State.make [| 42 |] in
          fun () ->
            let tas = Multicore.Mc_tas.native () in
            ignore (Multicore.Mc_tas.apply tas rng ~slot:0)));
    Test.make ~name:"e10/mc-tournament-tas-solo"
      (Staged.stage
         (let rng = Random.State.make [| 43 |] in
          fun () ->
            let tas = Multicore.Mc_tas.of_tournament ~n:4 in
            ignore (Multicore.Mc_tas.apply tas rng ~slot:0)));
  ]

let run_bechamel () =
  Fmt.pr "@.== Bechamel microbenches (ns per run, OLS on monotonic clock) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"rtas" ~fmt:"%s/%s" bench_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then begin
        let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
        List.iter
          (fun (name, ols) ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Fmt.pr "  %-42s %14.1f ns@." name est
            | _ -> Fmt.pr "  %-42s %14s@." name "n/a")
          (List.sort compare rows)
      end)
    merged

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
  Fmt.pr
    "usage: main.exe [--domains N] [ids...]@.\
    \       main.exe bechamel | list@."

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
  | [ "bechamel" ] -> run_bechamel ()
  | [ "list" ] ->
      List.iter (fun (id, doc, _) -> Fmt.pr "%-5s %s@." id doc) Experiments.all;
      Fmt.pr "%-5s %s@." "bechamel" "Bechamel microbenches"
  | [] ->
      run_tables ~domains:!domains [];
      run_bechamel ()
  | ids when List.mem "bechamel" ids ->
      let tables = List.filter (fun id -> id <> "bechamel") ids in
      if tables <> [] then run_tables ~domains:!domains tables;
      run_bechamel ()
  | ids -> run_tables ~domains:!domains ids
