(* Shared helpers for the algorithm test suites. *)

let count_winners sched =
  Array.fold_left
    (fun acc r -> match r with Some 1 -> acc + 1 | _ -> acc)
    0
    (Sim.Sched.results sched)

let all_finished sched = Array.for_all Option.is_some (Sim.Sched.results sched)

let check_le_outcome ~crash_free sched =
  let winners = count_winners sched in
  if winners > 1 then Alcotest.fail "two winners";
  if crash_free && all_finished sched && winners <> 1 then
    Alcotest.fail "crash-free execution without a winner"

(* The registry entry's simulator constructor. *)
let make name = (Option.get (Rtas.Registry.find name)).Rtas.Registry.make

(* Build a leader election from [make], run [k] participants under
   [adversary], and return the scheduler (for inspection) and memory
   (for space accounting). *)
let run_le ?(seed = 1L) ~make ~n ~k adversary =
  let mem = Sim.Memory.create () in
  let le : Leaderelect.Le.t = make mem ~n in
  let sched = Sim.Sched.create ~seed (Leaderelect.Le.programs le ~k) in
  Sim.Sched.run sched adversary;
  (sched, mem)

(* Mean over [trials] random-oblivious runs of the maximum per-process
   step count. *)
let avg_max_steps ?(trials = 50) ~make ~n ~k () =
  let total = ref 0 in
  for seed = 1 to trials do
    let sched, _ =
      run_le ~seed:(Int64.of_int seed) ~make ~n ~k
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7919)))
    in
    total := !total + Sim.Sched.max_steps sched
  done;
  float_of_int !total /. float_of_int trials

(* Safety sweep: random schedules, random crashes, varying k. *)
let safety_sweep ?(trials = 40) ~make ~n ~ks () =
  List.iter
    (fun k ->
      for seed = 1 to trials do
        let crash_prob = if seed mod 2 = 0 then 0.02 else 0.0 in
        let adv =
          if crash_prob > 0.0 then
            Fault.Plan.apply ~seed:(Int64.of_int (seed * 31))
              [ Fault.Plan.storm crash_prob ]
              (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13)))
          else Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13))
        in
        let sched, _ = run_le ~seed:(Int64.of_int seed) ~make ~n ~k adv in
        check_le_outcome ~crash_free:(crash_prob = 0.0) sched
      done)
    ks
