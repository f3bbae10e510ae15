(* Tests for the fault-injection subsystem: declarative fault plans,
   the watchdog, and the chaos runners. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* The same tiny program the scheduler tests use: read, write back
   value + pid + 1, return the value read. *)
let incr_prog reg ctx =
  let v = Sim.Ctx.read ctx reg in
  Sim.Ctx.write ctx reg (v + Sim.Ctx.pid ctx + 1);
  v

let incr_sched k =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  Sim.Sched.create (Array.init k (fun _ -> incr_prog reg))

let count_crashed sched =
  let c = ref 0 in
  for pid = 0 to Sim.Sched.n sched - 1 do
    if Sim.Sched.status sched pid = Sim.Sched.Crashed then incr c
  done;
  !c

(* {1 Plan: syntax} *)

let test_plan_round_trip () =
  let plan =
    [
      Fault.Plan.crash_after ~pid:2 ~steps:5;
      Fault.Plan.crash_at ~pid:0 ~time:9;
      Fault.Plan.storm 0.02;
      Fault.Plan.storm ~max_crashes:3 0.5;
      Fault.Plan.stall ~pid:1 ~from_time:10 ~until_time:40;
      Fault.Plan.halt_at 200;
    ]
  in
  let s = Fault.Plan.to_string plan in
  match Fault.Plan.of_string s with
  | Ok plan' -> checkb "round trip" true (plan = plan')
  | Error msg -> Alcotest.fail msg

let test_plan_parse_examples () =
  (match Fault.Plan.of_string "crash:2@5, storm:0.1, halt@100" with
  | Ok [ _; _; _ ] -> ()
  | Ok _ -> Alcotest.fail "expected three actions"
  | Error msg -> Alcotest.fail msg);
  checkb "empty plan parses" true (Fault.Plan.of_string "" = Ok []);
  checkb "garbage rejected" true
    (match Fault.Plan.of_string "explode:3" with Error _ -> true | Ok _ -> false);
  checkb "bad number rejected" true
    (match Fault.Plan.of_string "crash:x@1" with Error _ -> true | Ok _ -> false)

(* A storm probability outside [0, 1] (NaN included) and a negative
   pid, step count, time or budget are rejected when parsed, and the
   storm constructor and the chaos runner reject such a probability
   too, before any trial runs. *)
let test_out_of_range_rejected () =
  List.iter
    (fun s ->
      checkb (s ^ " rejected") true
        (match Fault.Plan.of_string s with Error _ -> true | Ok _ -> false))
    [ "storm:1.5"; "storm:-0.1"; "storm:nan"; "storm:inf"; "storm:0.5@-1";
      "crash:-1@3"; "crash:0@-1"; "crashat:0@-5"; "crashat:-2@5";
      "stall:-1@1-2"; "halt@-1" ];
  List.iter
    (fun s ->
      checkb (s ^ " accepted") true
        (match Fault.Plan.of_string s with Ok _ -> true | Error _ -> false))
    [ "storm:0"; "storm:1"; "storm:1@0"; "crash:0@0"; "halt@0" ];
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  List.iter
    (fun p ->
      checkb (Printf.sprintf "storm %g raises" p) true
        (raises (fun () -> Fault.Plan.storm p));
      List.iter
        (fun mode ->
          checkb
            (Fmt.str "%a run_point at %g raises" Fault.Chaos.pp_mode mode p)
            true
            (raises (fun () ->
                 Fault.Chaos.run_point ~mode ~algorithm:"tournament" ~n:4 ~k:2
                   ~crash_prob:p ~trials:2 ~seed:1L ())))
        [ Fault.Chaos.Tas; Fault.Chaos.Le; Fault.Chaos.Mc ])
    [ 1.5; -0.1; Float.nan ]

(* {1 Plan: apply semantics} *)

let test_plan_crash_after () =
  let sched = incr_sched 2 in
  let adv =
    Fault.Plan.apply
      [ Fault.Plan.crash_after ~pid:0 ~steps:1 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checkb "p0 crashed" true (Sim.Sched.status sched 0 = Sim.Sched.Crashed);
  checki "p0 took exactly 1 step" 1 (Sim.Sched.steps sched 0);
  checkb "p1 finished" true (Sim.Sched.result sched 1 <> None)

let test_plan_crash_at () =
  let sched = incr_sched 2 in
  let adv =
    Fault.Plan.apply
      [ Fault.Plan.crash_at ~pid:1 ~time:0 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checkb "p1 crashed before stepping" true
    (Sim.Sched.status sched 1 = Sim.Sched.Crashed && Sim.Sched.steps sched 1 = 0);
  checkb "p0 finished" true (Sim.Sched.result sched 0 <> None)

let test_plan_halt_at () =
  let sched = incr_sched 3 in
  let adv =
    Fault.Plan.apply [ Fault.Plan.halt_at 3 ] (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checki "stopped at time 3" 3 (Sim.Sched.time sched);
  checkb "somebody was cut off" true
    (Array.exists Option.is_none (Sim.Sched.results sched))

let test_plan_stall () =
  (* Stalling p0 for the first few decisions hands the schedule to p1. *)
  let sched = incr_sched 2 in
  let adv =
    Fault.Plan.apply
      [ Fault.Plan.stall ~pid:0 ~from_time:0 ~until_time:4 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checki "p1 ran first" 1 (Sim.Sched.first_step_time sched 1);
  checkb "p0 only ran after p1 finished" true
    (Sim.Sched.first_step_time sched 0 > Sim.Sched.finish_time sched 1);
  checkb "both finished (a stall is never a deadlock)" true
    (Array.for_all Option.is_some (Sim.Sched.results sched))

let finished sched =
  Array.fold_left
    (fun a r -> if Option.is_some r then a + 1 else a)
    0
    (Sim.Sched.results sched)

let test_plan_storm_default_budget () =
  (* A certain storm kills processes at every decision, but never the
     last one: with the default n-1 budget exactly one process
     survives and finishes. *)
  let sched = incr_sched 4 in
  let adv =
    Fault.Plan.apply ~seed:5L [ Fault.Plan.storm 1.0 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checki "n-1 crashed" 3 (count_crashed sched);
  checki "one survivor finished" 1 (finished sched)

let test_plan_storm_explicit_budget () =
  let sched = incr_sched 4 in
  let adv =
    Fault.Plan.apply ~seed:5L
      [ Fault.Plan.storm ~max_crashes:1 1.0 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checki "exactly one crash" 1 (count_crashed sched);
  checki "three finished" 3 (finished sched)

let test_plan_reproducible () =
  (* The same seed gives the same faults. *)
  let crashed_set () =
    let sched = incr_sched 4 in
    let adv =
      Fault.Plan.apply ~seed:77L [ Fault.Plan.storm 0.5 ]
        (Sim.Adversary.round_robin ())
    in
    Sim.Sched.run sched adv;
    List.init 4 (fun pid -> Sim.Sched.status sched pid = Sim.Sched.Crashed)
  in
  checkb "deterministic" true (crashed_set () = crashed_set ())

(* {1 Random crashes: a certain storm under its crash budget} *)

(* A random crash adversary is a storm plan; these are its budget
   cases, kept on their own seed. *)

let test_random_crashes_default_budget () =
  let sched = incr_sched 4 in
  let adv =
    Fault.Plan.apply ~seed:3L [ Fault.Plan.storm 1.0 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checki "at most n-1 crashes, survivor lives" 3 (count_crashed sched);
  checkb "survivor finished" true
    (Array.exists Option.is_some (Sim.Sched.results sched))

let test_random_crashes_explicit_budget () =
  let sched = incr_sched 4 in
  let adv =
    Fault.Plan.apply ~seed:3L
      [ Fault.Plan.storm ~max_crashes:2 1.0 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checki "bounded by max_crashes" 2 (count_crashed sched);
  checki "the rest finished" 2 (finished sched)

(* {1 Plan: decisions and cost} *)

(* [adv] logging its crash decisions as (time, pid): the crash list
   reads the same on either kernel. *)
let logging_crashes (adv : Sim.Sched.adversary) =
  let log = ref [] in
  let decide (v : Sim.Sched.view) =
    let d = adv.decide v in
    if d < Sim.Sched.halt then
      log := (v.view_time, Sim.Sched.crash_proc d) :: !log;
    d
  in
  ({ adv with decide }, fun () -> List.rev !log)

(* Crashes and results of a tournament election, n = k = 8, on either
   kernel. *)
let tournament_crashes ~flat adv =
  let adv, crashes = logging_crashes adv in
  let results =
    if flat then begin
      let m =
        Flatsim.Machine.create ~seed:11L ~procs:8
          (Flatsim.Programs.tournament ~n:8)
      in
      Flatsim.Machine.run m adv;
      Flatsim.Machine.results m
    end
    else begin
      let mem = Sim.Memory.create () in
      let le =
        (Option.get (Rtas.Registry.find "tournament")).Rtas.Registry.make mem
          ~n:8
      in
      let sched =
        Sim.Sched.create ~seed:11L (Leaderelect.Le.programs le ~k:8)
      in
      Sim.Sched.run sched adv;
      Sim.Sched.results sched
    end
  in
  (crashes (), results)

let test_plan_storm_golden () =
  (* A storm draws its coin, then its victim, from its own generator;
     these crashes are the ones a storm of the same seed and probability
     produced before plans were the only crash path. *)
  List.iter
    (fun flat ->
      let kernel = if flat then "flat kernel" else "effect kernel" in
      let crashes, results =
        tournament_crashes ~flat
          (Fault.Plan.apply ~seed:23L [ Fault.Plan.storm 0.3 ]
             (Sim.Adversary.round_robin ()))
      in
      Alcotest.(check (list (pair int int)))
        (kernel ^ ": crash list")
        [ (2, 3); (5, 2); (14, 1); (16, 7); (18, 6); (18, 0); (20, 5) ]
        crashes;
      checkb (kernel ^ ": p4 wins") true (results.(4) = Some 1))
    [ false; true ]

let test_plan_storm_cost () =
  (* Minor words per step of tournament elections (n = k = 64) under
     random_oblivious, bare and under a rare storm. The wrapper may add
     at most 3 words per step: its own per-decision work allocates
     nothing but the storm's float draw. *)
  let words_per_step wrap =
    let w0 = Gc.minor_words () and steps = ref 0 in
    for i = 0 to 3 do
      let s = Sim.Rng.derive 7L ~stream:i in
      let o =
        Rtas.Election.run ~seed:(Sim.Rng.derive s ~stream:0)
          ~adversary:
            (wrap s
               (Sim.Adversary.random_oblivious
                  ~seed:(Sim.Rng.derive s ~stream:1)))
          ~algorithm:"tournament" ~n:64 ~k:64 ()
      in
      steps := !steps + o.Rtas.Election.total_steps
    done;
    (Gc.minor_words () -. w0) /. float_of_int !steps
  in
  let bare = words_per_step (fun _ adv -> adv) in
  let storm =
    words_per_step (fun s adv ->
        Fault.Plan.apply ~seed:(Sim.Rng.derive s ~stream:2)
          [ Fault.Plan.storm 0.005 ]
          adv)
  in
  if storm -. bare > 3.0 then
    Alcotest.failf "storm adds %.1f words per step (bare %.1f)" (storm -. bare)
      bare

(* {1 Watchdog} *)

let test_watchdog_first_attempt () =
  match Fault.Watchdog.run ~seed:42L (fun ~seed -> seed) with
  | Ok { Fault.Watchdog.value; seed_used; attempt; _ } ->
      checkb "used the caller's seed" true (value = 42L && seed_used = 42L);
      checki "first attempt" 0 attempt
  | Error _ -> Alcotest.fail "expected success"

let test_watchdog_retries_then_succeeds () =
  let calls = ref 0 in
  match
    Fault.Watchdog.run ~retries:3 ~seed:42L (fun ~seed ->
        incr calls;
        if !calls <= 2 then failwith "flaky";
        seed)
  with
  | Ok { Fault.Watchdog.attempt; seed_used; _ } ->
      checki "two failures then success" 3 !calls;
      checki "third attempt" 2 attempt;
      checkb "rotated off the caller's seed" true (seed_used <> 42L)
  | Error _ -> Alcotest.fail "expected eventual success"

let test_watchdog_gives_up () =
  match Fault.Watchdog.run ~retries:1 ~seed:42L (fun ~seed:_ -> failwith "always") with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      checki "attempts" 2 f.Fault.Watchdog.attempts;
      checki "all seeds reported" 2 (List.length f.Fault.Watchdog.seeds_tried);
      checkb "first seed is the caller's" true
        (List.hd f.Fault.Watchdog.seeds_tried = 42L);
      checkb "reason is the raise" true
        (match f.Fault.Watchdog.last_reason with
        | Fault.Watchdog.Raised _ -> true
        | Fault.Watchdog.Timed_out _ -> false)

let test_watchdog_rotation_deterministic () =
  let seeds () =
    match
      Fault.Watchdog.run ~retries:2 ~seed:9L (fun ~seed:_ -> failwith "always")
    with
    | Error f -> f.Fault.Watchdog.seeds_tried
    | Ok _ -> assert false
  in
  checkb "same rotation both times" true (seeds () = seeds ())

let test_watchdog_timeout () =
  match
    Fault.Watchdog.run ~timeout:0.005 ~retries:0 ~seed:1L (fun ~seed:_ ->
        Unix.sleepf 0.02)
  with
  | Ok _ -> Alcotest.fail "expected a timeout failure"
  | Error f ->
      checkb "timed out" true
        (match f.Fault.Watchdog.last_reason with
        | Fault.Watchdog.Timed_out t -> t > 0.005
        | Fault.Watchdog.Raised _ -> false)

(* {1 Chaos smoke (simulated and multicore)} *)

let test_chaos_smoke () =
  let r =
    Fault.Chaos.run_point ~mode:Fault.Chaos.Tas ~algorithm:"log*" ~n:8 ~k:4
      ~crash_prob:0.3 ~trials:8 ~seed:11L ()
  in
  checki "all trials ran" 8 r.Fault.Chaos.trials;
  checki "no violations" 0 r.Fault.Chaos.violations;
  checki "no timeouts" 0 r.Fault.Chaos.timeouts;
  checkb "no watchdog failure" true (r.Fault.Chaos.last_failure = None);
  checkb "storm actually crashed somebody" true (r.Fault.Chaos.crashes > 0)

let test_chaos_le_mode () =
  let r =
    Fault.Chaos.run_point ~mode:Fault.Chaos.Le ~algorithm:"tournament" ~n:8
      ~k:4 ~crash_prob:0.1 ~trials:5 ~seed:7L ()
  in
  checki "no violations" 0 r.Fault.Chaos.violations

let test_chaos_plan_override () =
  (* An explicit plan replaces the storm: crash p0 after its first step
     in every trial. *)
  let r =
    Fault.Chaos.run_point
      ~plan:[ Fault.Plan.crash_after ~pid:0 ~steps:1 ]
      ~mode:Fault.Chaos.Tas ~algorithm:"log*" ~n:8 ~k:4 ~crash_prob:0.0
      ~trials:4 ~seed:3L ()
  in
  checki "one crash per trial" 4 r.Fault.Chaos.crashes;
  checki "no violations" 0 r.Fault.Chaos.violations

(* Three reports of one small sweep point, with hand-set counts, and the
   totals [rtas chaos] must print for them. *)
let totals_fixture () =
  let r =
    Fault.Chaos.run_point ~mode:Fault.Chaos.Tas ~algorithm:"log*" ~n:8 ~k:4
      ~crash_prob:0.3 ~trials:3 ~seed:11L ()
  in
  let a = { r with Fault.Chaos.trials = 5; crashes = 2; violations = 1; timeouts = 0 }
  and b = { r with Fault.Chaos.trials = 7; crashes = 4; violations = 0; timeouts = 3 } in
  let expected =
    Printf.sprintf
      "chaos.crashes = %d\nchaos.livelock_timeouts = 3\nchaos.trials = 15\n\
       chaos.violations = 1\n"
      (6 + r.Fault.Chaos.crashes)
  in
  (a, r, b, expected)

let totals reports = Fmt.str "%a" Fault.Chaos.pp_totals reports

let test_chaos_totals () =
  (* [rtas chaos] prints the sweep's totals as sums over its reports, in
     name order. *)
  let a, r, b, expected = totals_fixture () in
  Alcotest.(check string) "sums" expected (totals [ a; r; b ]);
  (* A multicore row is one more report, summed like the others. *)
  let m =
    Fault.Chaos.run_point ~mode:Fault.Chaos.Mc ~algorithm:"native" ~n:4 ~k:4
      ~crash_prob:0.4 ~trials:2 ~seed:13L ()
  in
  Alcotest.(check string) "sums with an mc report"
    (Printf.sprintf
       "chaos.crashes = %d\nchaos.livelock_timeouts = %d\nchaos.trials = 17\n\
        chaos.violations = %d\n"
       (6 + r.Fault.Chaos.crashes + m.Fault.Chaos.crashes)
       (3 + m.Fault.Chaos.timeouts)
       (1 + m.Fault.Chaos.violations))
    (totals [ a; r; b; m ]);
  Alcotest.(check string) "no reports, no lines" "" (totals [])

let test_chaos_totals_order_independent () =
  (* The totals do not depend on the order the reports come in. *)
  let a, r, b, expected = totals_fixture () in
  List.iter
    (fun reports ->
      Alcotest.(check string) "order-independent" expected (totals reports))
    [ [ a; b; r ]; [ r; a; b ]; [ r; b; a ]; [ b; a; r ]; [ b; r; a ] ]

let test_chaos_unknown_algorithm () =
  (* Rejected up front, not retried until the watchdog calls it a
     livelock. *)
  checkb "unknown name raises Invalid_argument" true
    (try
       ignore
         (Fault.Chaos.run_point ~mode:Fault.Chaos.Tas ~algorithm:"nope" ~n:8
            ~k:4 ~crash_prob:0.0 ~trials:3 ~seed:1L ());
       false
     with Invalid_argument _ -> true);
  checkb "k > n raises Invalid_argument" true
    (try
       ignore
         (Fault.Chaos.run_point ~mode:Fault.Chaos.Le ~algorithm:"tournament"
            ~n:4 ~k:16 ~crash_prob:0.0 ~trials:3 ~seed:1L ());
       false
     with Invalid_argument _ -> true)

let test_mc_chaos_smoke () =
  let r =
    Fault.Chaos.run_point ~mode:Fault.Chaos.Mc ~algorithm:"native" ~n:4 ~k:4
      ~crash_prob:0.4 ~trials:4 ~seed:13L ()
  in
  checki "all trials ran" 4 r.Fault.Chaos.trials;
  checki "no violations" 0 r.Fault.Chaos.violations;
  (* In mc mode the steps are the invokers, the crashes the no-shows. *)
  checkb "everyone accounted for" true
    (r.Fault.Chaos.steps + r.Fault.Chaos.crashes = 4 * 4)

let () =
  Alcotest.run "fault"
    [
      ( "plan-syntax",
        [
          Alcotest.test_case "round trip" `Quick test_plan_round_trip;
          Alcotest.test_case "parse examples" `Quick test_plan_parse_examples;
          Alcotest.test_case "out-of-range values rejected" `Quick
            test_out_of_range_rejected;
        ] );
      ( "plan-apply",
        [
          Alcotest.test_case "crash after steps" `Quick test_plan_crash_after;
          Alcotest.test_case "crash at time" `Quick test_plan_crash_at;
          Alcotest.test_case "halt at time" `Quick test_plan_halt_at;
          Alcotest.test_case "stall window" `Quick test_plan_stall;
          Alcotest.test_case "storm n-1 budget" `Quick
            test_plan_storm_default_budget;
          Alcotest.test_case "storm explicit budget" `Quick
            test_plan_storm_explicit_budget;
          Alcotest.test_case "reproducible" `Quick test_plan_reproducible;
          Alcotest.test_case "storm golden crashes" `Quick
            test_plan_storm_golden;
          Alcotest.test_case "storm allocation per step" `Quick
            test_plan_storm_cost;
        ] );
      ( "random-crashes",
        [
          Alcotest.test_case "default n-1 budget" `Quick
            test_random_crashes_default_budget;
          Alcotest.test_case "explicit budget" `Quick
            test_random_crashes_explicit_budget;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "first attempt" `Quick test_watchdog_first_attempt;
          Alcotest.test_case "retries then succeeds" `Quick
            test_watchdog_retries_then_succeeds;
          Alcotest.test_case "gives up with seeds" `Quick test_watchdog_gives_up;
          Alcotest.test_case "deterministic rotation" `Quick
            test_watchdog_rotation_deterministic;
          Alcotest.test_case "timeout" `Quick test_watchdog_timeout;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "simulated smoke" `Quick test_chaos_smoke;
          Alcotest.test_case "leader-election mode" `Quick test_chaos_le_mode;
          Alcotest.test_case "plan override" `Quick test_chaos_plan_override;
          Alcotest.test_case "totals sum the reports" `Quick test_chaos_totals;
          Alcotest.test_case "totals are order-independent" `Quick
            test_chaos_totals_order_independent;
          Alcotest.test_case "unknown algorithm rejected" `Quick
            test_chaos_unknown_algorithm;
          Alcotest.test_case "multicore smoke" `Quick test_mc_chaos_smoke;
        ] );
    ]
