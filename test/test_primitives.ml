(* Tests for splitters, 2-/3-process leader election and TAS-from-LE.

   The Le2 protocol is safety-critical (everything above it depends on
   "at most one winner"), so besides unit tests we model-check it: every
   resolution of the first D scheduling/coin choices is explored
   exhaustively. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let count_winners sched =
  Array.fold_left
    (fun acc r -> match r with Some 1 -> acc + 1 | _ -> acc)
    0
    (Sim.Sched.results sched)

let all_finished sched =
  Array.for_all Option.is_some (Sim.Sched.results sched)

(* {1 Deterministic splitter} *)

let splitter_outcome_code = function
  | Primitives.Splitter.L -> 0
  | Primitives.Splitter.R -> 1
  | Primitives.Splitter.S -> 2

let splitter_programs k () =
  let mem = Sim.Memory.create () in
  let sp = Primitives.Splitter.create mem in
  Array.init k (fun _ ctx ->
      splitter_outcome_code (Primitives.Splitter.split sp ctx))

let check_splitter_outcomes k sched =
  if all_finished sched then begin
    let outcomes = Array.map Option.get (Sim.Sched.results sched) in
    let count c = Array.fold_left (fun a o -> if o = c then a + 1 else a) 0 outcomes in
    if count 2 > 1 then Alcotest.fail "more than one S";
    if count 0 > k - 1 then Alcotest.fail "all got L";
    if count 1 > k - 1 then Alcotest.fail "all got R"
  end

let test_splitter_solo () =
  let sched = Sim.Sched.create (splitter_programs 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo caller stops" 2 (Option.get (Sim.Sched.result sched 0))

let test_splitter_explore_2 () =
  let n =
    Sim.Explore.explore ~depth:8 ~programs:(splitter_programs 2)
      ~check:(check_splitter_outcomes 2) ()
  in
  checkb "explored many executions" true (n > 50)

let test_splitter_explore_3 () =
  let n =
    Sim.Explore.explore ~depth:9 ~programs:(splitter_programs 3)
      ~check:(check_splitter_outcomes 3) ()
  in
  checkb "explored many executions" true (n > 500)

let test_splitter_random_many () =
  (* 16 processes under random oblivious schedules. *)
  for seed = 1 to 50 do
    let sched = Sim.Sched.create (splitter_programs 16 ()) in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int seed));
    check_splitter_outcomes 16 sched
  done

let test_splitter_crash_exhaustive () =
  (* Every bounded crash schedule (up to 2 crashes anywhere in the first
     8 choices): never two processes stop at the same splitter. *)
  let n =
    Sim.Explore.explore ~depth:8 ~max_crashes:2 ~programs:(splitter_programs 2)
      ~check:(fun sched ->
        let stops =
          Array.fold_left
            (fun a r -> if r = Some 2 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        if stops > 1 then Alcotest.fail "two processes stopped")
      ()
  in
  checkb "explored" true (n > 100)

let test_splitter_space () =
  let mem = Sim.Memory.create () in
  let _ = Primitives.Splitter.create mem in
  checki "O(1) registers" 2 (Sim.Memory.allocated mem)

let test_splitter_sequential_later_callers_lose () =
  (* If callers run one after the other, the first stops and the rest
     cannot stop. *)
  let sched = Sim.Sched.create (splitter_programs 3 ()) in
  Sim.Sched.run sched
    (Sim.Adversary.fixed_schedule ~then_halt:false
       [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 |]);
  checki "first stops" 2 (Option.get (Sim.Sched.result sched 0));
  checkb "second does not stop" true (Option.get (Sim.Sched.result sched 1) <> 2);
  checkb "third does not stop" true (Option.get (Sim.Sched.result sched 2) <> 2)

(* {1 Randomized splitter} *)

let rsplitter_programs k () =
  let mem = Sim.Memory.create () in
  let sp = Primitives.Rsplitter.create mem in
  Array.init k (fun _ ctx ->
      splitter_outcome_code (Primitives.Rsplitter.split sp ctx))

let test_rsplitter_solo () =
  let sched = Sim.Sched.create (rsplitter_programs 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo caller stops" 2 (Option.get (Sim.Sched.result sched 0))

let test_rsplitter_at_most_one_s () =
  let n =
    Sim.Explore.explore ~depth:8 ~programs:(rsplitter_programs 2)
      ~check:(fun sched ->
        if all_finished sched then begin
          let stops =
            Array.fold_left
              (fun a r -> if r = Some 2 then a + 1 else a)
              0 (Sim.Sched.results sched)
          in
          if stops > 1 then Alcotest.fail "two processes stopped"
        end)
      ()
  in
  checkb "explored" true (n > 50)

let test_rsplitter_both_directions_possible () =
  (* Unlike the deterministic splitter, both callers can end up on the
     same side; check both L-L and R-R occur over random runs. *)
  let seen = Hashtbl.create 4 in
  for seed = 1 to 200 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int (seed * 31)) (rsplitter_programs 2 ())
    in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:(Int64.of_int seed));
    let a = Option.get (Sim.Sched.result sched 0)
    and b = Option.get (Sim.Sched.result sched 1) in
    Hashtbl.replace seen (a, b) ()
  done;
  checkb "some same-side outcome occurs" true
    (Hashtbl.mem seen (0, 0) || Hashtbl.mem seen (1, 1))

(* {1 Le2: the randomized 2-process duel} *)

let le2_programs ?(ports = [| 0; 1 |]) () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  Array.map
    (fun port ctx -> if Primitives.Le2.elect le ctx ~port then 1 else 0)
    ports

let check_le2 sched =
  let winners = count_winners sched in
  if winners > 1 then Alcotest.fail "two winners";
  if all_finished sched && winners <> 1 then
    Alcotest.fail "crash-free execution without a winner"

let test_le2_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:18 ~programs:(fun () -> le2_programs ()) ~check:check_le2 ()
  in
  checkb "explored thousands of executions" true (n > 100_000)

let test_le2_random_deep () =
  for seed = 1 to 2000 do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (le2_programs ()) in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7 + 1)));
    check_le2 sched
  done

let test_le2_solo_wins () =
  for port = 0 to 1 do
    let mem = Sim.Memory.create () in
    let le = Primitives.Le2.create mem in
    let prog ctx = if Primitives.Le2.elect le ctx ~port then 1 else 0 in
    let sched = Sim.Sched.create [| prog |] in
    Sim.Sched.run sched (Sim.Adversary.round_robin ());
    checki "solo process wins" 1 (Option.get (Sim.Sched.result sched 0))
  done

let test_le2_survivor_decides_after_crash () =
  (* Crash p1 after each possible number of steps; p0 must still finish,
     and there must never be two winners. *)
  for crash_after = 0 to 12 do
    for seed = 1 to 50 do
      let sched =
        Sim.Sched.create ~seed:(Int64.of_int (seed + (crash_after * 100)))
          (le2_programs ())
      in
      let adv =
        Fault.Plan.apply [ Fault.Plan.crash_after ~pid:1 ~steps:crash_after ]
          (Sim.Adversary.round_robin ())
      in
      Sim.Sched.run sched adv;
      checkb "p0 finished" true (Sim.Sched.result sched 0 <> None);
      checkb "at most one winner" true (count_winners sched <= 1)
    done
  done

let test_le2_crash_exhaustive () =
  (* Model-check the crash model itself: every resolution of the first
     8 choices — scheduling, coins, or "crash one of the runnable
     processes" (up to one crash) — keeps at-most-one-winner, and a
     fully finished execution still elects somebody. *)
  let n =
    Sim.Explore.explore ~depth:10 ~max_crashes:1
      ~programs:(fun () -> le2_programs ())
      ~check:check_le2 ()
  in
  checkb (Printf.sprintf "explored %d crash schedules" n) true (n > 5_000)

let test_le2_expected_steps_constant () =
  (* Average steps of the max-steps process over random schedules must be
     a small constant. *)
  let total = ref 0 in
  let trials = 500 in
  for seed = 1 to trials do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (le2_programs ()) in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
    total := !total + Sim.Sched.max_steps sched
  done;
  let avg = float_of_int !total /. float_of_int trials in
  checkb (Printf.sprintf "avg max steps %.2f < 25" avg) true (avg < 25.0)

let test_le2_space () =
  let mem = Sim.Memory.create () in
  let _ = Primitives.Le2.create mem in
  checki "2 registers" 2 (Sim.Memory.allocated mem)

let test_le2_bad_port () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  let prog ctx = if Primitives.Le2.elect le ctx ~port:2 then 1 else 0 in
  (* The argument check fires during [create], which runs each program up
     to its first shared-memory operation. *)
  checkb "rejects bad port" true
    (try
       ignore (Sim.Sched.create [| prog |]);
       false
     with Invalid_argument _ -> true)

(* {1 Le2_bounded: the duel with constant-size registers} *)

let le2b_programs ?(ports = [| 0; 1 |]) () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2_bounded.create mem in
  Array.map
    (fun port ctx -> if Primitives.Le2_bounded.elect le ctx ~port then 1 else 0)
    ports

let test_le2b_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:16 ~programs:(fun () -> le2b_programs ())
      ~check:check_le2 ()
  in
  checkb "explored many executions" true (n > 20_000)

let test_le2b_random_deep () =
  for seed = 1 to 2000 do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (le2b_programs ()) in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int ((seed * 7) + 1)));
    check_le2 sched
  done

let test_le2b_solo_wins () =
  for port = 0 to 1 do
    let sched = Sim.Sched.create (le2b_programs ~ports:[| port |] ()) in
    Sim.Sched.run sched (Sim.Adversary.round_robin ());
    checki "solo process wins" 1 (Option.get (Sim.Sched.result sched 0))
  done

let test_le2b_values_bounded () =
  (* The whole point: every written value stays within the domain {0..7}. *)
  for seed = 1 to 200 do
    let mem = Sim.Memory.create () in
    let le = Primitives.Le2_bounded.create mem in
    let programs =
      Array.init 2 (fun port ctx ->
          if Primitives.Le2_bounded.elect le ctx ~port then 1 else 0)
    in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) ~record_trace:true programs
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
    List.iter
      (function
        | Sim.Op.Step { kind = Sim.Op.Write v; _ } ->
            checkb "value in {0..7}" true (v >= 0 && v < 8)
        | _ -> ())
      (Sim.Sched.trace sched)
  done

let test_le2b_crash_safety () =
  for crash_after = 0 to 10 do
    for seed = 1 to 40 do
      let sched =
        Sim.Sched.create
          ~seed:(Int64.of_int (seed + (crash_after * 100)))
          (le2b_programs ())
      in
      let adv =
        Fault.Plan.apply [ Fault.Plan.crash_after ~pid:1 ~steps:crash_after ]
          (Sim.Adversary.round_robin ())
      in
      Sim.Sched.run sched adv;
      checkb "p0 finished" true (Sim.Sched.result sched 0 <> None);
      checkb "at most one winner" true (count_winners sched <= 1)
    done
  done

let test_le2b_crash_exhaustive () =
  (* Crash-aware mirror of [test_le2_crash_exhaustive] for the bounded
     duel: every resolution of the first choices — scheduling, coins, or
     one crash — keeps at-most-one-winner, and a fully finished
     execution still elects somebody. *)
  let n =
    Sim.Explore.explore ~depth:10 ~max_crashes:1
      ~programs:(fun () -> le2b_programs ())
      ~check:check_le2 ()
  in
  checkb (Printf.sprintf "explored %d crash schedules" n) true (n > 5_000)

let test_le2b_expected_steps () =
  let total = ref 0 in
  let trials = 500 in
  for seed = 1 to trials do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (le2b_programs ()) in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
    total := !total + Sim.Sched.max_steps sched
  done;
  let avg = float_of_int !total /. float_of_int trials in
  checkb (Printf.sprintf "avg max steps %.2f < 25" avg) true (avg < 25.0)

(* {1 Le3} *)

let le3_programs ?(ports = [| 0; 1; 2 |]) () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le3.create mem in
  Array.map
    (fun port ctx -> if Primitives.Le3.elect le ctx ~port then 1 else 0)
    ports

let test_le3_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:10 ~programs:(fun () -> le3_programs ())
      ~check:(fun sched ->
        let winners = count_winners sched in
        if winners > 1 then Alcotest.fail "two winners";
        if all_finished sched && winners <> 1 then
          Alcotest.fail "no winner in crash-free run")
      ()
  in
  checkb "explored" true (n > 5_000)

let test_le3_random () =
  for seed = 1 to 1000 do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (le3_programs ()) in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 11)));
    let winners = count_winners sched in
    checki "exactly one winner" 1 winners
  done

let test_le3_solo_each_port () =
  for port = 0 to 2 do
    let sched = Sim.Sched.create (le3_programs ~ports:[| port |] ()) in
    Sim.Sched.run sched (Sim.Adversary.round_robin ());
    checki "solo wins" 1 (Option.get (Sim.Sched.result sched 0))
  done

let test_le3_pairs () =
  (* Every 2-subset of ports: exactly one winner. *)
  List.iter
    (fun ports ->
      for seed = 1 to 200 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) (le3_programs ~ports ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13)));
        checki "one winner" 1 (count_winners sched)
      done)
    [ [| 0; 1 |]; [| 0; 2 |]; [| 1; 2 |] ]

let test_le3_crash_safety () =
  for crashed_port = 0 to 2 do
    for seed = 1 to 100 do
      let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (le3_programs ()) in
      let adv =
        Fault.Plan.apply
          [ Fault.Plan.crash_after ~pid:crashed_port ~steps:(seed mod 6) ]
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 17)))
      in
      Sim.Sched.run sched adv;
      checkb "at most one winner" true (count_winners sched <= 1);
      (* the two survivors must both finish *)
      for pid = 0 to 2 do
        if pid <> crashed_port then
          checkb "survivor finished" true
            (Sim.Sched.result sched pid <> None
            || Sim.Sched.status sched pid = Sim.Sched.Crashed)
      done
    done
  done

(* {1 TAS from LE} *)

let tas_programs k () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  let tas =
    Primitives.Tas.create mem ~elect:(fun ctx ->
        Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
  in
  Array.init k (fun _ ctx -> Primitives.Tas.apply tas ctx)

let test_tas_unique_zero () =
  for seed = 1 to 1000 do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (tas_programs 2 ()) in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 5)));
    let zeros =
      Array.fold_left
        (fun a r -> if r = Some 0 then a + 1 else a)
        0 (Sim.Sched.results sched)
    in
    checki "exactly one TAS() returns 0" 1 zeros
  done

let test_tas_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:12 ~programs:(tas_programs 2)
      ~check:(fun sched ->
        let zeros =
          Array.fold_left
            (fun a r -> if r = Some 0 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        if zeros > 1 then Alcotest.fail "two TAS() calls returned 0";
        if all_finished sched && zeros <> 1 then
          Alcotest.fail "no TAS() call returned 0")
      ()
  in
  checkb "explored" true (n > 1_000)

let test_tas_linearizable () =
  (* No call that completes strictly before the winner's first step may
     return 1 while the winner returns 0 later: once a 1 was returned the
     bit was set, so a 0-return must not start afterwards. Equivalently:
     the winner's first step must precede every completed call's return.
     We check it on traces from random schedules. *)
  for seed = 1 to 500 do
    let sched = Sim.Sched.create ~seed:(Int64.of_int seed) (tas_programs 2 ()) in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 23)));
    let winner = ref (-1) in
    Array.iteri
      (fun pid r -> if r = Some 0 then winner := pid)
      (Sim.Sched.results sched);
    if !winner >= 0 then begin
      let wstart = Sim.Sched.first_step_time sched !winner in
      Array.iteri
        (fun pid r ->
          if pid <> !winner && r = Some 1 then
            let fin = Sim.Sched.finish_time sched pid in
            checkb "loser finished after winner started" true (fin >= wstart))
        (Sim.Sched.results sched)
    end
  done

let test_tas_lincheck_random () =
  (* Full linearizability via the Wing-Gong checker, on histories of up
     to 6 concurrent TAS calls over a 6-slot tournament election. *)
  for seed = 1 to 300 do
    let mem = Sim.Memory.create () in
    let le = Primitives.Le3.create mem in
    let tas =
      Primitives.Tas.create mem ~elect:(fun ctx ->
          Primitives.Le3.elect le ctx ~port:(Sim.Ctx.pid ctx))
    in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed)
        (Array.init 3 (fun _ ctx -> Primitives.Tas.apply tas ctx))
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 41)));
    checkb "linearizable" true (Sim.Lincheck.check_tas_sched sched)
  done

let test_lincheck_rejects_bad_histories () =
  let mk op result start_time end_time =
    { Sim.Lincheck.op; result; start_time; end_time }
  in
  (* Two winners: impossible. *)
  checkb "two zeros rejected" false
    (Sim.Lincheck.linearizable Sim.Lincheck.tas_spec
       [ mk 0 0 1 2; mk 1 0 3 4 ]);
  (* A 1 strictly before any 0: impossible (the bit cannot unset). *)
  checkb "1-before-0 rejected" false
    (Sim.Lincheck.linearizable Sim.Lincheck.tas_spec
       [ mk 0 1 1 2; mk 1 0 3 4 ]);
  (* The same two ops overlapping: fine (the 0 linearizes first). *)
  checkb "overlap accepted" true
    (Sim.Lincheck.linearizable Sim.Lincheck.tas_spec
       [ mk 0 1 1 4; mk 1 0 2 3 ]);
  (* No winner at all: fine for completed-op histories? No: a lone 1 with
     nobody setting the bit is illegal. *)
  checkb "lone 1 rejected" false
    (Sim.Lincheck.linearizable Sim.Lincheck.tas_spec [ mk 0 1 1 2 ]);
  checkb "lone 0 accepted" true
    (Sim.Lincheck.linearizable Sim.Lincheck.tas_spec [ mk 0 0 1 2 ]);
  checkb "empty history accepted" true
    (Sim.Lincheck.linearizable Sim.Lincheck.tas_spec [])

let test_lincheck_crash_aware () =
  let mk op result start_time end_time =
    { Sim.Lincheck.op; result; start_time; end_time }
  in
  let pend op start =
    { Sim.Lincheck.p_op = op; p_start = start; possible_results = [ 0 ] }
  in
  let lin = Sim.Lincheck.linearizable_incomplete Sim.Lincheck.tas_spec in
  (* Survivors all returning 1 with nobody completing a 0 is illegal... *)
  checkb "all ones without a winner rejected" false
    (lin ~completed:[ mk 0 1 3 4; mk 1 1 5 6 ] ~pending:[]);
  (* ...unless a crashed possible-winner's pending call explains them. *)
  checkb "crashed possible-winner legalises the ones" true
    (lin ~completed:[ mk 0 1 3 4; mk 1 1 5 6 ] ~pending:[ pend 2 1 ]);
  (* A pending call never legalises a second completed 0. *)
  checkb "two zeros always illegal" false
    (lin ~completed:[ mk 0 0 1 2; mk 1 0 3 4 ] ~pending:[ pend 2 1 ]);
  (* Real time binds the phantom too: it cannot linearize before an
     operation that responded before the phantom was invoked, so a
     completed 1 followed by a later-crashed would-be winner stays
     illegal. *)
  checkb "phantom cannot precede an earlier completed 1" false
    (lin ~completed:[ mk 0 1 1 2 ] ~pending:[ pend 1 5 ]);
  (* A pending call may also simply never have taken effect. *)
  checkb "pending call droppable" true
    (lin ~completed:[ mk 0 0 1 2; mk 1 1 3 4 ] ~pending:[ pend 2 1 ])

let test_tas_crash_lincheck () =
  (* Crash the would-be winner at every early point of the real 2-process
     TAS under random schedules: the incomplete histories must always be
     crash-aware linearizable, and the "survivor loses to a crashed
     phantom winner" case must actually occur. *)
  let phantom_case = ref false in
  for crash_after = 0 to 12 do
    for seed = 1 to 40 do
      let sched =
        Sim.Sched.create
          ~seed:(Int64.of_int (seed + (crash_after * 1000)))
          (tas_programs 2 ())
      in
      let adv =
        Fault.Plan.apply
          [ Fault.Plan.crash_after ~pid:0 ~steps:crash_after ]
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int ((seed * 7) + 1)))
      in
      Sim.Sched.run sched adv;
      checkb "crash-aware linearizable" true (Sim.Lincheck.check_tas_sched sched);
      if
        Sim.Sched.status sched 0 = Sim.Sched.Crashed
        && Sim.Sched.result sched 1 = Some 1
      then phantom_case := true
    done
  done;
  checkb "phantom-winner case exercised" true !phantom_case

let test_tas_sequential () =
  (* Strictly sequential calls: first gets 0, second gets 1. *)
  let sched = Sim.Sched.create (tas_programs 2 ()) in
  let schedule = Array.append (Array.make 30 0) (Array.make 30 1) in
  Sim.Sched.run sched (Sim.Adversary.fixed_schedule ~then_halt:false schedule);
  checki "first caller wins" 0 (Option.get (Sim.Sched.result sched 0));
  checki "second caller loses" 1 (Option.get (Sim.Sched.result sched 1))

let () =
  Alcotest.run "primitives"
    [
      ( "splitter",
        [
          Alcotest.test_case "solo stops" `Quick test_splitter_solo;
          Alcotest.test_case "exhaustive k=2" `Quick test_splitter_explore_2;
          Alcotest.test_case "exhaustive k=3" `Slow test_splitter_explore_3;
          Alcotest.test_case "exhaustive crash schedules" `Quick
            test_splitter_crash_exhaustive;
          Alcotest.test_case "random k=16" `Quick test_splitter_random_many;
          Alcotest.test_case "space" `Quick test_splitter_space;
          Alcotest.test_case "sequential callers" `Quick
            test_splitter_sequential_later_callers_lose;
        ] );
      ( "rsplitter",
        [
          Alcotest.test_case "solo stops" `Quick test_rsplitter_solo;
          Alcotest.test_case "at most one S" `Quick test_rsplitter_at_most_one_s;
          Alcotest.test_case "same-side outcomes" `Quick
            test_rsplitter_both_directions_possible;
        ] );
      ( "le2",
        [
          Alcotest.test_case "exhaustive" `Slow test_le2_exhaustive;
          Alcotest.test_case "random schedules" `Quick test_le2_random_deep;
          Alcotest.test_case "solo wins" `Quick test_le2_solo_wins;
          Alcotest.test_case "crash safety" `Quick test_le2_survivor_decides_after_crash;
          Alcotest.test_case "exhaustive crash schedules" `Slow
            test_le2_crash_exhaustive;
          Alcotest.test_case "constant expected steps" `Quick
            test_le2_expected_steps_constant;
          Alcotest.test_case "space" `Quick test_le2_space;
          Alcotest.test_case "bad port" `Quick test_le2_bad_port;
        ] );
      ( "le2-bounded",
        [
          Alcotest.test_case "exhaustive" `Slow test_le2b_exhaustive;
          Alcotest.test_case "random schedules" `Quick test_le2b_random_deep;
          Alcotest.test_case "solo wins" `Quick test_le2b_solo_wins;
          Alcotest.test_case "values stay in {0..7}" `Quick test_le2b_values_bounded;
          Alcotest.test_case "crash safety" `Quick test_le2b_crash_safety;
          Alcotest.test_case "crash-exhaustive" `Quick test_le2b_crash_exhaustive;
          Alcotest.test_case "constant expected steps" `Quick test_le2b_expected_steps;
        ] );
      ( "le3",
        [
          Alcotest.test_case "exhaustive" `Slow test_le3_exhaustive;
          Alcotest.test_case "random schedules" `Quick test_le3_random;
          Alcotest.test_case "solo each port" `Quick test_le3_solo_each_port;
          Alcotest.test_case "pairs" `Quick test_le3_pairs;
          Alcotest.test_case "crash safety" `Quick test_le3_crash_safety;
        ] );
      ( "tas",
        [
          Alcotest.test_case "unique zero" `Quick test_tas_unique_zero;
          Alcotest.test_case "exhaustive" `Slow test_tas_exhaustive;
          Alcotest.test_case "linearizable" `Quick test_tas_linearizable;
          Alcotest.test_case "lincheck random histories" `Quick
            test_tas_lincheck_random;
          Alcotest.test_case "lincheck rejects bad histories" `Quick
            test_lincheck_rejects_bad_histories;
          Alcotest.test_case "lincheck crash-aware completions" `Quick
            test_lincheck_crash_aware;
          Alcotest.test_case "lincheck under winner crashes" `Quick
            test_tas_crash_lincheck;
          Alcotest.test_case "sequential" `Quick test_tas_sequential;
        ] );
    ]
