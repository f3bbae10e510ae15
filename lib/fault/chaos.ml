type mode = Le | Tas | Mc

let pp_mode ppf = function
  | Le -> Fmt.string ppf "le"
  | Tas -> Fmt.string ppf "tas"
  | Mc -> Fmt.string ppf "mc"

type report = {
  impl : string;
  mode : mode;
  crash_prob : float;
  trials : int;
  crashes : int;
  violations : int;
  timeouts : int;
  failure_seeds : int64 list;
  last_failure : Watchdog.reason option;
  steps : int;
}

let count_crashed sched =
  let c = ref 0 in
  for pid = 0 to Sim.Sched.n sched - 1 do
    if Sim.Sched.status sched pid = Sim.Sched.Crashed then incr c
  done;
  !c

let count_result sched v =
  Array.fold_left
    (fun acc r -> if r = Some v then acc + 1 else acc)
    0
    (Sim.Sched.results sched)

let all_finished sched =
  Array.for_all Option.is_some (Sim.Sched.results sched)

let check_tas_outcome sched =
  let zeros = count_result sched 0 in
  if zeros > 1 then
    Some (Printf.sprintf "%d processes won the TAS (returned 0)" zeros)
  else if all_finished sched && zeros <> 1 then
    Some "complete execution finished without a TAS winner"
  else if not (Sim.Lincheck.check_tas_sched sched) then
    Some "history is not crash-aware linearizable"
  else None

let check_le_outcome sched =
  let winners = count_result sched 1 in
  if winners > 1 then
    Some (Printf.sprintf "%d processes were elected leader" winners)
  else if all_finished sched && winners <> 1 then
    Some "complete execution finished without a leader"
  else None

(* One simulated trial: the named algorithm under a random-oblivious
   base schedule wrapped in a crash storm, checked for unique-winner and
   (in TAS mode) crash-aware linearizability. *)
let sim_trial ?plan ~mode ~algorithm ~n ~k ~crash_prob ~seed () =
  let base =
    Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)
  in
  let actions =
    match plan with
    | Some p -> p
    | None -> if crash_prob > 0.0 then [ Plan.storm crash_prob ] else []
  in
  let adv = if actions = [] then base else Plan.apply ~seed actions base in
  let run, check =
    if mode = Le then (Rtas.Election.run, check_le_outcome)
    else (Rtas.Election.run_tas, check_tas_outcome)
  in
  let sched =
    (run ~seed ~adversary:adv ~algorithm ~n ~k ()).Rtas.Election.sched
  in
  (count_crashed sched, Sim.Sched.time sched, check sched)

let impl_names () = Rtas.Registry.names () @ [ "native" ]

let state_of_seed seed salt =
  Random.State.make
    [|
      Int64.to_int (Int64.logand seed 0x3FFFFFFFL);
      Int64.to_int (Int64.shift_right_logical seed 30);
      salt;
    |]

(* One multicore trial. A real domain cannot be crashed mid-operation
   (domains cannot be preempted), so the fault model is
   crash-before-invoke: each participant independently fails to show up
   with probability [crash_prob] (at least one always invokes). The
   survivors' TAS calls then race on real domains under the OS
   scheduler; safety demands exactly one 0 among them — a participant
   that never invoked can never be the phantom winner, so survivors-all-1
   is a violation here, unlike in the simulator's mid-operation crash
   model. The invokers stand in for the steps. *)
let mc_trial ~tas ~k ~crash_prob ~seed =
  let rng = state_of_seed seed 0x5EED in
  let invokes =
    Array.init k (fun _ -> Random.State.float rng 1.0 >= crash_prob)
  in
  if not (Array.exists Fun.id invokes) then
    invokes.(Random.State.int rng k) <- true;
  let tas = tas () in
  let domains =
    List.init k (fun slot ->
        if invokes.(slot) then
          Some
            (Domain.spawn (fun () ->
                 let rng = state_of_seed seed (0x7919 * (slot + 1)) in
                 Primitives.Atomic_tas.apply tas rng ~slot))
        else None)
  in
  let results = List.filter_map (Option.map Domain.join) domains in
  let invokers = List.length results in
  let zeros = List.length (List.filter (fun r -> r = 0) results) in
  let violation =
    if zeros <> 1 then
      Some
        (Printf.sprintf "%d of %d invokers returned 0 (expected exactly 1)"
           zeros invokers)
    else None
  in
  (k - invokers, invokers, violation)

let run_point ?(timeout = 5.0) ?(retries = 2) ?(domains = 1) ?plan
    ~mode ~algorithm ~n ~k ~crash_prob ~trials ~seed () =
  (* An unknown name, a k outside 1..n and a crash_prob outside [0, 1]
     are rejected before any trial runs: raised inside a watchdog
     attempt, they would be tallied as timeouts. *)
  let who = "Chaos.run_point" in
  let trial =
    match mode with
    | Mc ->
        let tas =
          if algorithm = "native" then Primitives.Atomic_tas.native
          else
            let e = Rtas.Registry.lookup ~who algorithm in
            fun () ->
              Primitives.Atomic_tas.create (fun mem ->
                  e.Rtas.Registry.make_mc mem ~n)
        in
        mc_trial ~tas ~k ~crash_prob
    | Le | Tas ->
        ignore (Rtas.Registry.lookup ~who algorithm);
        fun ~seed -> sim_trial ?plan ~mode ~algorithm ~n ~k ~crash_prob ~seed ()
  in
  if k < 1 || k > n then
    invalid_arg
      (Printf.sprintf "%s: k must be in 1..n (got k = %d, n = %d)" who k n);
  if not (crash_prob >= 0.0 && crash_prob <= 1.0) then
    invalid_arg
      (Printf.sprintf "%s: crash_prob must be in [0, 1] (got %g)" who crash_prob);
  (* Trials are independent. Simulated ones fan out over the engine; a
     multicore trial spawns its own domains, so those run one at a time
     with a longer timeout (domain spawn is slow next to simulation).
     Trial [t] always runs with [Rng.derive seed ~stream:t], and the
     watchdog outcomes are folded below in trial order, so a simulated
     report (including [failure_seeds]) is identical for every domain
     count. *)
  let domains, timeout =
    if mode = Mc then (1, Float.max timeout 10.0) else (domains, timeout)
  in
  let outcomes =
    Engine.run ~domains ~trials ~seed (fun ~trial:_ ~seed ->
        Watchdog.run ~timeout ~retries ~seed trial)
  in
  let crashes = ref 0 in
  let violations = ref 0 in
  let timeouts = ref 0 in
  let failure_seeds = ref [] in
  let last_failure = ref None in
  let steps = ref 0 in
  Array.iter
    (function
      | Ok { Watchdog.value = c, s, violation; seed_used; _ } ->
          crashes := !crashes + c;
          steps := !steps + s;
          (match violation with
          | Some _ ->
              incr violations;
              failure_seeds := seed_used :: !failure_seeds
          | None -> ())
      | Error f ->
          incr timeouts;
          failure_seeds := f.Watchdog.seeds_tried @ !failure_seeds;
          last_failure := Some f.Watchdog.last_reason)
    outcomes;
  {
    impl = algorithm;
    mode;
    crash_prob;
    trials;
    crashes = !crashes;
    violations = !violations;
    timeouts = !timeouts;
    failure_seeds = List.rev !failure_seeds;
    last_failure = !last_failure;
    steps = !steps;
  }

let sweep ?(timeout = 5.0) ?(retries = 2) ?(domains = 1) ?plan ?(mode = Tas)
    ~algorithms ~n ~k ~probs ~trials ~seed () =
  List.concat_map
    (fun algorithm ->
      List.map
        (fun crash_prob ->
          run_point ~timeout ~retries ~domains ?plan ~mode ~algorithm ~n ~k
            ~crash_prob ~trials ~seed ())
        probs)
    algorithms

(* The impl column is as wide as the widest name, and at least 14. *)
let pp_table ppf reports =
  let w =
    List.fold_left (fun w r -> max w (String.length r.impl)) 14 reports
  in
  Fmt.pf ppf "%-*s %-4s %6s %7s %8s %8s %9s %10s@." w "impl" "mode" "prob"
    "trials" "crashes" "timeouts" "viols" "steps";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-*s %-4s %6.3f %7d %8d %8d %9d %10.1f@." w r.impl
        (Fmt.str "%a" pp_mode r.mode)
        r.crash_prob r.trials r.crashes r.timeouts r.violations
        (if r.trials = 0 then 0.0
         else float_of_int r.steps /. float_of_int r.trials))
    reports

let pp_totals ppf = function
  | [] -> ()
  | reports ->
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
      List.iter
        (fun (name, v) -> Fmt.pf ppf "chaos.%s = %d@." name v)
        [
          ("crashes", sum (fun r -> r.crashes));
          ("livelock_timeouts", sum (fun r -> r.timeouts));
          ("trials", sum (fun r -> r.trials));
          ("violations", sum (fun r -> r.violations));
        ]
