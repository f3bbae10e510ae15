type report = {
  impl : string;
  crash_prob : float;
  trials : int;
  participants : int;
  crashed_participants : int;
  violations : int;
  timeouts : int;
  failure_seeds : int64 list;
  last_failure : Watchdog.reason option;
  max_elapsed : float;
}

(* Every registry algorithm with a multicore backend, wrapped into a
   TAS, plus the Atomic.exchange reference. Adding a backend to a
   registry entry automatically puts it under chaos. *)
let impls =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      let make_mc = Option.get e.Rtas.Registry.make_mc in
      ( e.Rtas.Registry.name,
        fun ~k ->
          Primitives.Atomic_tas.create (fun mem ->
              (make_mc mem ~n:k).Leaderelect.Le.elect) ))
    (Rtas.Registry.dual ())
  @ [ ("native", fun ~k:_ -> Primitives.Atomic_tas.native ()) ]

let impl_names () = List.map fst impls

let state_of_seed seed salt =
  Random.State.make
    [|
      Int64.to_int (Int64.logand seed 0x3FFFFFFFL);
      Int64.to_int (Int64.shift_right_logical seed 30);
      salt;
    |]

(* One multicore chaos trial. A "crash" of a real domain cannot be
   injected mid-operation (domains cannot be preempted), so the fault
   model is crash-before-invoke: each participant independently fails
   to show up with probability [crash_prob] (at least one always
   invokes). The survivors' TAS calls then race on real domains under
   the OS scheduler; safety demands exactly one 0 among them — a
   crashed participant that never invoked can never be the phantom
   winner, so survivors-all-1 is a violation here, unlike in the
   simulator's mid-operation crash model. *)
let trial ~make ~k ~crash_prob ~seed =
  let rng = state_of_seed seed 0x5EED in
  let invokes = Array.init k (fun _ -> Random.State.float rng 1.0 >= crash_prob) in
  if not (Array.exists Fun.id invokes) then
    invokes.(Random.State.int rng k) <- true;
  let tas = make ~k in
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
  (invokers, k - invokers, violation)

let run_point ?(timeout = 10.0) ?(retries = 2) ~impl ~k ~crash_prob ~trials
    ~seed () =
  let make =
    match List.assoc_opt impl impls with
    | Some make -> make
    | None ->
        invalid_arg
          (Printf.sprintf "unknown multicore TAS %S (expected one of: %s)" impl
             (String.concat ", " (impl_names ())))
  in
  let seeds = Sim.Rng.create (Int64.logxor seed 0x3C0FFEEL) in
  let participants = ref 0 in
  let crashed = ref 0 in
  let violations = ref 0 in
  let timeouts = ref 0 in
  let failure_seeds = ref [] in
  let last_failure = ref None in
  let max_elapsed = ref 0.0 in
  for _ = 1 to trials do
    let trial_seed = Sim.Rng.next seeds in
    match
      Watchdog.run ~timeout ~retries ~seed:trial_seed (fun ~seed ->
          trial ~make ~k ~crash_prob ~seed)
    with
    | Ok { value = invokers, crashes, violation; seed_used; elapsed; _ } ->
        participants := !participants + invokers;
        crashed := !crashed + crashes;
        if elapsed > !max_elapsed then max_elapsed := elapsed;
        (match violation with
        | Some _ ->
            incr violations;
            failure_seeds := seed_used :: !failure_seeds
        | None -> ())
    | Error f ->
        incr timeouts;
        failure_seeds := f.Watchdog.seeds_tried @ !failure_seeds;
        last_failure := Some f.Watchdog.last_reason
  done;
  {
    impl;
    crash_prob;
    trials;
    participants = !participants;
    crashed_participants = !crashed;
    violations = !violations;
    timeouts = !timeouts;
    failure_seeds = List.rev !failure_seeds;
    last_failure = !last_failure;
    max_elapsed = !max_elapsed;
  }

let sweep ?(timeout = 10.0) ?(retries = 2) ?impls:(names = impl_names ()) ~k
    ~probs ~trials ~seed () =
  List.concat_map
    (fun impl ->
      List.map
        (fun crash_prob ->
          run_point ~timeout ~retries ~impl ~k ~crash_prob ~trials ~seed ())
        probs)
    names

let pp_report ppf r =
  Fmt.pf ppf "%-14s %-4s %6.3f %7d %8d %8d %9d %10.1f" r.impl "mc"
    r.crash_prob r.trials r.crashed_participants r.timeouts r.violations
    (if r.trials = 0 then 0.0
     else float_of_int r.participants /. float_of_int r.trials)
