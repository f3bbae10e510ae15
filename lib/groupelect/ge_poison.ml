let max_cells = 16

module Make (M : Backend.Mem.S) = struct
  let create ?(name = "poison") mem ~size ~write_prob =
    if size < 1 then invalid_arg "Ge_poison.create: size must be >= 1";
    if not (write_prob > 0.0 && write_prob <= 1.0) then
      invalid_arg "Ge_poison.create: write_prob must be in (0, 1]";
    let cells =
      Array.init size (fun i ->
          M.alloc mem ~name:(Printf.sprintf "%s.cell[%d]" name i))
    in
    let threshold = Ge_sift.threshold write_prob in
    let elect ctx =
      M.enter ctx "poison_round";
      let slot = M.self ctx mod size in
      (* Commit: announce participation before learning the coin. *)
      M.write ctx cells.(slot) 1;
      let won =
        if M.flip ctx Ge_sift.resolution < threshold then true
        else begin
          (* Low path: swallow the pill, then scan for anyone still
             committed (or high) — a visible 1 is the poison. *)
          M.write ctx cells.(slot) 2;
          let rec scan i =
            if i >= size then true
            else if M.read ctx cells.(i) = 1 then false
            else scan (i + 1)
          in
          scan 0
        end
      in
      M.leave ctx "poison_round";
      won
    in
    { Ge.ge_name = name; elect }
end

include Make (Backend.Sim_mem)

let schedule ~n =
  let probs = Ge_sift.probability_schedule ~n in
  let probs =
    (* Keep at least one real round for every non-trivial n, so small
       systems (and the differential tests that use them) exercise the
       PoisonPill path rather than degenerating to pure splitter/duel. *)
    if Array.length probs = 0 && n >= 2 then
      [| 1.0 /. sqrt (float_of_int n) |]
    else probs
  in
  Array.map
    (fun p ->
      let size = int_of_float (ceil (1.0 /. p)) in
      (p, min max_cells (max 1 size)))
    probs
