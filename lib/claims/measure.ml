type sample = { steps : float; rmrs : float; registers : int }

let oblivious seed =
  Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)

let elections ?domains ?(adversary = oblivious) ~trials ~seed ~algorithm ~n ~k
    () =
  if trials < 1 then invalid_arg "Measure.elections: trials must be >= 1";
  let entry = Rtas.Election.lookup algorithm ~n ~k in
  (* One arena per worker: the election is built once and every trial
     resets its registers and the scheduler, which replays exactly what
     a fresh system would. *)
  let runs =
    Engine.run_local ?domains ~trials ~seed
      ~local:(fun () ->
        let mem = Sim.Memory.create () in
        let progs = Leaderelect.Le.programs (entry.Rtas.Registry.make mem ~n) ~k in
        (mem, progs, Sim.Sched.create progs))
      (fun (mem, progs, sched) ~trial:_ ~seed ->
        Sim.Memory.reset mem;
        Sim.Sched.reset ~seed:(Sim.Rng.derive seed ~stream:0) sched progs;
        Sim.Sched.run sched (adversary seed);
        (Sim.Sched.max_steps sched, Sim.Sched.max_rmrs sched, Sim.Memory.allocated mem))
  in
  let mean f =
    Sim.Stats.mean_array (Array.map (fun r -> float_of_int (f r)) runs)
  in
  {
    steps = mean (fun (s, _, _) -> s);
    rmrs = mean (fun (_, r, _) -> r);
    registers = (fun (_, _, g) -> g) runs.(0);
  }
