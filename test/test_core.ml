(* Tests for the public API (registry, election driver) plus
   property-based tests over the whole algorithm catalog. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Registry} *)

let test_registry_names_unique () =
  let names = Rtas.Registry.names () in
  checki "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_find () =
  checkb "log* present" true (Rtas.Registry.find "log*" <> None);
  checkb "unknown absent" true (Rtas.Registry.find "nope" = None)

let test_registry_complete () =
  checkb "at least 8 algorithms" true (List.length Rtas.Registry.all >= 8)

(* {1 Election driver} *)

let test_election_run_basic () =
  let o = Rtas.Election.run ~algorithm:"log*" ~n:16 ~k:8 () in
  checkb "has winner" true (o.Rtas.Election.winner <> None);
  checkb "positive steps" true (o.Rtas.Election.total_steps > 0);
  checkb "allocated registers" true (o.Rtas.Election.registers > 0)

let test_election_every_algorithm () =
  List.iter
    (fun name ->
      (* The classic RatRace allocates Theta(n^3); keep n small. *)
      let n = if name = "ratrace" then 8 else 32 in
      let o =
        Rtas.Election.run ~algorithm:name ~n ~k:n
          ~adversary:(Sim.Adversary.random_oblivious ~seed:5L)
          ()
      in
      checkb (name ^ " has winner") true (o.Rtas.Election.winner <> None))
    (Rtas.Registry.names ())

let test_election_unknown_algorithm () =
  checkb "raises" true
    (try
       ignore (Rtas.Election.run ~algorithm:"nope" ~n:4 ~k:4 ());
       false
     with Invalid_argument _ -> true)

let test_election_bad_k () =
  (* k outside 1..n is the caller's error, for the election and the TAS
     alike: not a run without a winner, nor a pid-range failure deep
     inside the algorithm. *)
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun k ->
      checkb (Printf.sprintf "run k = %d raises" k) true
        (raises (fun () -> Rtas.Election.run ~algorithm:"tournament" ~n:2 ~k ()));
      checkb (Printf.sprintf "run_tas k = %d raises" k) true
        (raises (fun () ->
             Rtas.Election.run_tas ~algorithm:"tournament" ~n:2 ~k ())))
    [ 0; 3; 40 ]

let test_election_tas () =
  let o =
    Rtas.Election.run_tas ~algorithm:"tournament" ~n:8 ~k:8
      ~adversary:(Sim.Adversary.random_oblivious ~seed:3L)
      ()
  in
  let zeros =
    Array.fold_left
      (fun a r -> if r = Some 0 then a + 1 else a)
      0 o.Rtas.Election.results
  in
  checki "exactly one TAS winner" 1 zeros;
  checkb "winner field matches" true (o.Rtas.Election.winner <> None)

let test_election_record_trace () =
  (* [record_trace] keeps every event: one finish per finished process,
     one step per unit of time. Without it the trace is empty. *)
  List.iter
    (fun run ->
      let o = run ~record_trace:true in
      let trace = Sim.Sched.trace o.Rtas.Election.sched in
      let count f = List.length (List.filter f trace) in
      checki "a finish per process" 4
        (count (function Sim.Op.Finish _ -> true | _ -> false));
      checki "a step per unit of time" o.Rtas.Election.total_steps
        (count (function Sim.Op.Step _ -> true | _ -> false));
      checkb "empty without record_trace" true
        (Sim.Sched.trace (run ~record_trace:false).Rtas.Election.sched = []))
    [
      (fun ~record_trace ->
        Rtas.Election.run ~record_trace ~algorithm:"tournament" ~n:8 ~k:4 ());
      (fun ~record_trace ->
        Rtas.Election.run_tas ~record_trace ~algorithm:"tournament" ~n:8 ~k:4
          ());
    ]

let test_election_deterministic_given_seed () =
  let run () =
    Rtas.Election.run ~seed:99L ~algorithm:"ratrace-lean" ~n:16 ~k:16
      ~adversary:(Sim.Adversary.random_oblivious ~seed:7L)
      ()
  in
  let a = run () and b = run () in
  Alcotest.(check (option int))
    "same winner" a.Rtas.Election.winner b.Rtas.Election.winner;
  checki "same steps" a.Rtas.Election.total_steps b.Rtas.Election.total_steps

(* {1 Property-based tests (qcheck)} *)

let algorithms_for_qcheck =
  List.filter (fun n -> n <> "ratrace") (Rtas.Registry.names ())

let prop_unique_winner =
  QCheck2.Test.make ~count:120 ~name:"at most one winner, any algorithm/seed/k"
    QCheck2.Gen.(
      quad (oneofl algorithms_for_qcheck) (int_range 1 24) (int_range 1 1000)
        (int_range 0 2))
    (fun (algorithm, k, seed, advkind) ->
      let adversary =
        match advkind with
        | 0 -> Sim.Adversary.round_robin ()
        | 1 -> Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 31))
        | _ ->
            Fault.Plan.apply ~seed:(Int64.of_int (seed * 17))
              [ Fault.Plan.storm 0.05 ]
              (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13)))
      in
      let o =
        Rtas.Election.run ~seed:(Int64.of_int seed) ~adversary ~algorithm ~n:24
          ~k ()
      in
      let winners =
        Array.fold_left
          (fun a r -> if r = Some 1 then a + 1 else a)
          0 o.Rtas.Election.results
      in
      winners <= 1
      && (advkind = 2 || winners = 1) (* crash-free runs elect exactly one *))

let prop_tas_semantics =
  QCheck2.Test.make ~count:80 ~name:"TAS: exactly one zero, any algorithm/seed"
    QCheck2.Gen.(
      triple (oneofl algorithms_for_qcheck) (int_range 1 16) (int_range 1 1000))
    (fun (algorithm, k, seed) ->
      let o =
        Rtas.Election.run_tas ~seed:(Int64.of_int seed)
          ~adversary:(Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7)))
          ~algorithm ~n:16 ~k ()
      in
      let zeros =
        Array.fold_left
          (fun a r -> if r = Some 0 then a + 1 else a)
          0 o.Rtas.Election.results
      in
      zeros = 1
      && Array.for_all
           (fun r -> match r with Some v -> v = 0 || v = 1 | None -> false)
           o.Rtas.Election.results)

let prop_covering_recurrence_bounds =
  QCheck2.Test.make ~count:200 ~name:"covering f stays within [1, n]"
    QCheck2.Gen.(pair (int_range 8 2048) (int_range 0 100))
    (fun (n, kraw) ->
      let k = kraw mod n in
      let v = Lowerbound.Covering.f ~n k in
      v >= 1 && v <= n)

let prop_splitter_no_two_stops =
  QCheck2.Test.make ~count:150 ~name:"splitter: never two S, any k/seed"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 10_000))
    (fun (k, seed) ->
      let mem = Sim.Memory.create () in
      let sp = Primitives.Splitter.create mem in
      let programs =
        Array.init k (fun _ ctx ->
            match Primitives.Splitter.split sp ctx with
            | Primitives.Splitter.S -> 2
            | Primitives.Splitter.R -> 1
            | Primitives.Splitter.L -> 0)
      in
      let sched = Sim.Sched.create ~seed:(Int64.of_int seed) programs in
      Sim.Sched.run sched
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
      let stops =
        Array.fold_left
          (fun a r -> if r = Some 2 then a + 1 else a)
          0 (Sim.Sched.results sched)
      in
      stops <= 1)

let prop_rng_geometric_support =
  QCheck2.Test.make ~count:200 ~name:"geometric draw within support"
    QCheck2.Gen.(pair (int_range 1 30) (int_range 1 100000))
    (fun (l, seed) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.geometric_capped rng l in
      v >= 1 && v <= l)

(* A randomized adaptive adversary: scheduling decisions are a seeded
   hash of everything it can legally see (the full pending-operation
   views). This samples a much richer strategy space than the oblivious
   adversaries, and safety must hold against all of it. *)
let hashing_adaptive_adversary seed =
  Sim.Adversary.adaptive "hashing" (fun view ->
      let r = view.Sim.Sched.runnable in
      match Sim.Running.length r with
      | 0 -> Sim.Sched.Halt
      | m ->
          let digest =
            List.fold_left
              (fun acc pid ->
                let p = view.Sim.Sched.pending_of pid in
                Hashtbl.hash
                  ( acc,
                    pid,
                    p.Sim.Sched.view_kind,
                    p.Sim.Sched.view_reg,
                    p.Sim.Sched.view_value,
                    p.Sim.Sched.view_steps ))
              (Hashtbl.hash (seed, view.Sim.Sched.view_time))
              (List.init m (Sim.Running.get r))
          in
          Sim.Sched.Schedule (Sim.Running.get r (abs digest mod m)))

let prop_unique_winner_adaptive =
  QCheck2.Test.make ~count:100
    ~name:"at most one winner under random adaptive adversaries"
    QCheck2.Gen.(
      triple (oneofl algorithms_for_qcheck) (int_range 1 16) (int_range 1 10_000))
    (fun (algorithm, k, seed) ->
      let o =
        Rtas.Election.run ~seed:(Int64.of_int seed)
          ~adversary:(hashing_adaptive_adversary seed) ~algorithm ~n:16 ~k ()
      in
      let winners =
        Array.fold_left
          (fun a r -> if r = Some 1 then a + 1 else a)
          0 o.Rtas.Election.results
      in
      winners = 1)

let prop_stats_bounds =
  QCheck2.Test.make ~count:200 ~name:"stats: mean/median within [min, max]"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Sim.Stats.summarize xs in
      s.Sim.Stats.mean >= s.Sim.Stats.min -. 1e-9
      && s.Sim.Stats.mean <= s.Sim.Stats.max +. 1e-9
      && s.Sim.Stats.median >= s.Sim.Stats.min
      && s.Sim.Stats.median <= s.Sim.Stats.max
      && s.Sim.Stats.p95 >= s.Sim.Stats.median
      && s.Sim.Stats.stddev >= 0.0
      && s.Sim.Stats.count = List.length xs)

let prop_stats_constant_sample =
  QCheck2.Test.make ~count:100 ~name:"stats: constant sample has zero stddev"
    QCheck2.Gen.(pair (float_range (-5.0) 5.0) (int_range 1 20))
    (fun (v, n) ->
      let s = Sim.Stats.summarize (List.init n (fun _ -> v)) in
      abs_float s.Sim.Stats.stddev < 1e-9 && abs_float (s.Sim.Stats.mean -. v) < 1e-9)

let () =
  Alcotest.run "core"
    [
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick test_registry_names_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "complete" `Quick test_registry_complete;
        ] );
      ( "election",
        [
          Alcotest.test_case "basic run" `Quick test_election_run_basic;
          Alcotest.test_case "every algorithm" `Quick test_election_every_algorithm;
          Alcotest.test_case "unknown algorithm" `Quick test_election_unknown_algorithm;
          Alcotest.test_case "k out of range" `Quick test_election_bad_k;
          Alcotest.test_case "tas wrapper" `Quick test_election_tas;
          Alcotest.test_case "record_trace" `Quick test_election_record_trace;
          Alcotest.test_case "deterministic by seed" `Quick
            test_election_deterministic_given_seed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_unique_winner;
            prop_tas_semantics;
            prop_covering_recurrence_bounds;
            prop_splitter_no_two_stops;
            prop_rng_geometric_support;
            prop_unique_winner_adaptive;
            prop_stats_bounds;
            prop_stats_constant_sample;
          ] );
    ]
