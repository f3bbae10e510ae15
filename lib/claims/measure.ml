type sample = { steps : float; rmrs : float; registers : int }

let oblivious seed =
  Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)

let elections ?domains ?(adversary = oblivious) ~trials ~seed ~algorithm ~n ~k
    () =
  if trials < 1 then invalid_arg "Measure.elections: trials must be >= 1";
  let runs =
    Engine.run ?domains ~trials ~seed (fun ~trial:_ ~seed ->
        let o =
          Rtas.Election.run ~seed:(Sim.Rng.derive seed ~stream:0)
            ~adversary:(adversary seed) ~algorithm ~n ~k ()
        in
        (o.Rtas.Election.max_steps, o.Rtas.Election.max_rmrs, o.Rtas.Election.registers))
  in
  let mean f =
    Sim.Stats.mean_array (Array.map (fun r -> float_of_int (f r)) runs)
  in
  {
    steps = mean (fun (s, _, _) -> s);
    rmrs = mean (fun (_, r, _) -> r);
    registers = (fun (_, _, g) -> g) runs.(0);
  }
