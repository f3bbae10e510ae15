type mode = Le | Tas

let pp_mode ppf = function
  | Le -> Fmt.string ppf "le"
  | Tas -> Fmt.string ppf "tas"

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
  max_elapsed : float;
  mean_steps : float;
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

(* One chaos trial: the named algorithm under a random-oblivious base
   schedule wrapped in a crash storm, checked for unique-winner and (in
   TAS mode) crash-aware linearizability. *)
let trial ?plan ~mode ~algorithm ~n ~k ~crash_prob ~seed () =
  let base =
    Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)
  in
  let actions =
    match plan with
    | Some p -> p
    | None -> if crash_prob > 0.0 then [ Plan.storm crash_prob ] else []
  in
  let adv = if actions = [] then base else Plan.apply ~seed actions base in
  let outcome =
    match mode with
    | Tas -> Rtas.Election.run_tas ~seed ~adversary:adv ~algorithm ~n ~k ()
    | Le -> Rtas.Election.run ~seed ~adversary:adv ~algorithm ~n ~k ()
  in
  let sched = outcome.Rtas.Election.sched in
  let violation =
    match mode with
    | Tas -> check_tas_outcome sched
    | Le -> check_le_outcome sched
  in
  (count_crashed sched, Sim.Sched.time sched, violation)

let run_point ?(timeout = 5.0) ?(retries = 2) ?(domains = 1) ?plan
    ~mode ~algorithm ~n ~k ~crash_prob ~trials ~seed () =
  (* An unknown name or a k outside 1..n would raise inside every
     watchdog attempt and be tallied as timeouts; reject them before any
     trial runs. *)
  if Rtas.Registry.find algorithm = None then
    invalid_arg
      (Printf.sprintf
         "Chaos.run_point: unknown algorithm %S (expected one of: %s)" algorithm
         (String.concat ", " (Rtas.Registry.names ())));
  if k < 1 || k > n then
    invalid_arg
      (Printf.sprintf "Chaos.run_point: k must be in 1..n (got k = %d, n = %d)"
         k n);
  (* Trials are independent — fan them out over the engine. Trial [t]
     always runs with [Rng.derive seed ~stream:t], and the watchdog
     outcomes are folded below in trial order, so the report (including
     [failure_seeds]) is identical for every domain count. *)
  let outcomes =
    Engine.run ~domains ~trials ~seed (fun ~trial:_ ~seed:trial_seed ->
        Watchdog.run ~timeout ~retries ~seed:trial_seed (fun ~seed ->
            trial ?plan ~mode ~algorithm ~n ~k ~crash_prob ~seed ()))
  in
  let crashes = ref 0 in
  let violations = ref 0 in
  let timeouts = ref 0 in
  let failure_seeds = ref [] in
  let last_failure = ref None in
  let max_elapsed = ref 0.0 in
  let total_steps = ref 0 in
  Array.iter
    (function
      | Ok
          {
            Watchdog.value = c, steps, violation;
            seed_used;
            elapsed;
            _;
          } ->
          crashes := !crashes + c;
          total_steps := !total_steps + steps;
          if elapsed > !max_elapsed then max_elapsed := elapsed;
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
    max_elapsed = !max_elapsed;
    mean_steps =
      (if trials = 0 then 0.0
       else float_of_int !total_steps /. float_of_int trials);
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

let pp_report ppf r =
  Fmt.pf ppf "%-14s %-4s %6.3f %7d %8d %8d %9d %10.1f" r.impl
    (Fmt.str "%a" pp_mode r.mode)
    r.crash_prob r.trials r.crashes r.timeouts r.violations r.mean_steps

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
