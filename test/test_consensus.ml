(* Tests for n-process randomized consensus: adopt-commit, the
   conciliator and their composition. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Adopt-commit} *)

let ac_outcome_code = function
  | Consensus.Adopt_commit.Commit v -> 10 + v
  | Consensus.Adopt_commit.Adopt v -> v

let ac_programs inputs () =
  let mem = Sim.Memory.create () in
  let ac = Consensus.Adopt_commit.create mem in
  Array.map
    (fun v ctx -> ac_outcome_code (Consensus.Adopt_commit.decide ac ctx v))
    inputs

let check_ac inputs sched =
  let outcomes =
    Array.to_list (Sim.Sched.results sched)
    |> List.filter_map (fun r -> r)
  in
  let value c = if c >= 10 then c - 10 else c in
  let committed = List.filter (fun c -> c >= 10) outcomes in
  (* Coherence: a committed value forces everyone's value. *)
  List.iter
    (fun c ->
      List.iter
        (fun c' ->
          if value c' <> value c then
            Alcotest.fail "coherence violated: commit alongside other value")
        outcomes)
    committed;
  (* Validity. *)
  let inputs_l = Array.to_list inputs in
  List.iter
    (fun c ->
      if not (List.mem (value c) inputs_l) then Alcotest.fail "invalid value")
    outcomes;
  (* Convergence: unanimous inputs must all commit. *)
  if
    Array.for_all (fun v -> v = inputs.(0)) inputs
    && List.length outcomes = Array.length inputs
  then
    List.iter
      (fun c -> if c < 10 then Alcotest.fail "unanimous input did not commit")
      outcomes

let test_ac_exhaustive () =
  List.iter
    (fun inputs ->
      let n =
        Sim.Explore.explore ~depth:10 ~programs:(ac_programs inputs)
          ~check:(check_ac inputs) ()
      in
      Alcotest.(check bool) "explored" true (n >= 1))
    [ [| 0; 1 |]; [| 1; 0 |]; [| 0; 0 |]; [| 1; 1 |] ]

let test_ac_exhaustive_three () =
  List.iter
    (fun inputs ->
      let n =
        Sim.Explore.explore ~depth:8 ~programs:(ac_programs inputs)
          ~check:(check_ac inputs) ()
      in
      Alcotest.(check bool) "explored" true (n >= 1))
    [ [| 0; 1; 0 |]; [| 1; 1; 0 |]; [| 1; 1; 1 |] ]

let test_ac_random_wide () =
  for seed = 1 to 400 do
    let k = 2 + (seed mod 7) in
    let inputs = Array.init k (fun i -> (seed + i) land 1) in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (ac_programs inputs ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7)));
    check_ac inputs sched
  done

let test_ac_solo_commits () =
  for v = 0 to 1 do
    let sched = Sim.Sched.create (ac_programs [| v |] ()) in
    Sim.Sched.run sched (Sim.Adversary.round_robin ());
    checki "solo commits own value" (10 + v) (Option.get (Sim.Sched.result sched 0))
  done

(* {1 Conciliator} *)

let test_conciliator_validity () =
  for seed = 1 to 300 do
    let mem = Sim.Memory.create () in
    let conc = Consensus.Conciliator.create mem ~n:8 in
    let inputs = Array.init 8 (fun i -> (seed + i) land 1) in
    let programs =
      Array.map
        (fun v ctx -> Consensus.Conciliator.conciliate conc ctx v)
        inputs
    in
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) programs in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
    Array.iter
      (fun r ->
        let v = Option.get r in
        checkb "output is 0 or 1" true (v = 0 || v = 1))
      (Sim.Sched.results sched)
  done

let test_conciliator_often_agrees () =
  (* Against random oblivious schedules the conciliator should make all
     outputs equal in a healthy fraction of runs. *)
  let agree = ref 0 in
  let trials = 300 in
  for seed = 1 to trials do
    let mem = Sim.Memory.create () in
    let conc = Consensus.Conciliator.create mem ~n:8 in
    let programs =
      Array.init 8 (fun i ctx ->
          Consensus.Conciliator.conciliate conc ctx (i land 1))
    in
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) programs in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 11)));
    let outs = Array.map Option.get (Sim.Sched.results sched) in
    if Array.for_all (fun v -> v = outs.(0)) outs then incr agree
  done;
  checkb
    (Printf.sprintf "agreement in %d/%d runs > 1/3" !agree trials)
    true
    (float_of_int !agree /. float_of_int trials > 0.33)

(* {1 n-process consensus} *)

let consn_programs ?(n = 8) inputs () =
  let mem = Sim.Memory.create () in
  let c = Consensus.Consensus_n.create mem ~n in
  Array.map (fun v ctx -> Consensus.Consensus_n.propose c ctx v) inputs

let check_consensus inputs sched =
  let outs =
    Array.to_list (Sim.Sched.results sched) |> List.filter_map (fun r -> r)
  in
  (match outs with
  | [] -> ()
  | first :: rest ->
      List.iter (fun v -> if v <> first then Alcotest.fail "disagreement") rest);
  let inputs_l = Array.to_list inputs in
  List.iter
    (fun v -> if not (List.mem v inputs_l) then Alcotest.fail "invalid decision")
    outs

let test_consn_random () =
  for seed = 1 to 400 do
    let k = 2 + (seed mod 8) in
    let inputs = Array.init k (fun i -> (seed / 2 + i) land 1) in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (consn_programs ~n:16 inputs ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13)));
    check_consensus inputs sched;
    checkb "all decided" true (Tutil.all_finished sched)
  done

let test_consn_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:10 ~programs:(consn_programs ~n:2 [| 0; 1 |])
      ~check:(check_consensus [| 0; 1 |])
      ()
  in
  checkb "explored" true (n > 100)

let test_consn_solo () =
  for v = 0 to 1 do
    let sched = Sim.Sched.create (consn_programs ~n:4 [| v |] ()) in
    Sim.Sched.run sched (Sim.Adversary.round_robin ());
    checki "solo decides own value" v (Option.get (Sim.Sched.result sched 0))
  done

let test_consn_crash_safety () =
  for seed = 1 to 150 do
    let inputs = Array.init 6 (fun i -> i land 1) in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (consn_programs ~n:8 inputs ())
    in
    let adv =
      Fault.Plan.apply ~seed:(Int64.of_int (seed * 3))
        [ Fault.Plan.storm 0.02 ]
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7)))
    in
    Sim.Sched.run sched adv;
    check_consensus inputs sched
  done

let test_consn_expected_steps_small () =
  let total = ref 0 in
  let trials = 100 in
  for seed = 1 to trials do
    let inputs = Array.init 16 (fun i -> i land 1) in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (consn_programs ~n:16 inputs ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 29)));
    total := !total + Sim.Sched.max_steps sched
  done;
  let avg = float_of_int !total /. float_of_int trials in
  checkb (Printf.sprintf "avg max steps %.1f < 80" avg) true (avg < 80.0)

let () =
  Alcotest.run "consensus"
    [
      ( "adopt-commit",
        [
          Alcotest.test_case "exhaustive pairs" `Quick test_ac_exhaustive;
          Alcotest.test_case "exhaustive triples" `Slow test_ac_exhaustive_three;
          Alcotest.test_case "random wide" `Quick test_ac_random_wide;
          Alcotest.test_case "solo commits" `Quick test_ac_solo_commits;
        ] );
      ( "conciliator",
        [
          Alcotest.test_case "validity" `Quick test_conciliator_validity;
          Alcotest.test_case "often agrees" `Quick test_conciliator_often_agrees;
        ] );
      ( "consensus-n",
        [
          Alcotest.test_case "random" `Quick test_consn_random;
          Alcotest.test_case "exhaustive n=2" `Quick test_consn_exhaustive;
          Alcotest.test_case "solo" `Quick test_consn_solo;
          Alcotest.test_case "crash safety" `Quick test_consn_crash_safety;
          Alcotest.test_case "expected steps" `Quick test_consn_expected_steps_small;
        ] );
    ]
