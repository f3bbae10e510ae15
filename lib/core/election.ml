type outcome = {
  winner : int option;
  max_steps : int;
  max_rmrs : int;
  total_steps : int;
  registers : int;
  results : int option array;
  sched : Sim.Sched.t;
}

let lookup algorithm ~n ~k =
  let e = Registry.lookup ~who:"Election" algorithm in
  if k < 1 || k > n then
    invalid_arg
      (Printf.sprintf "%s: k must be in 1..n (got k = %d, n = %d)" algorithm
         k n);
  e

let finish ~mem ~win_value sched =
  let winner = ref None in
  Array.iteri
    (fun pid r -> if r = Some win_value then winner := Some pid)
    (Sim.Sched.results sched);
  {
    winner = !winner;
    max_steps = Sim.Sched.max_steps sched;
    max_rmrs = Sim.Sched.max_rmrs sched;
    total_steps = Sim.Sched.time sched;
    registers = Sim.Memory.allocated mem;
    results = Sim.Sched.results sched;
    sched;
  }

(* The election's [programs] under [adversary]; winners return [win_value]. *)
let run_with ~programs ~win_value ?(seed = 1L) ?record_trace
    ?(adversary = Sim.Adversary.round_robin ()) ~algorithm ~n ~k () =
  let entry = lookup algorithm ~n ~k in
  let mem = Sim.Memory.create () in
  let le = entry.Registry.make mem ~n in
  let sched = Sim.Sched.create ~seed ?record_trace (programs mem le ~k) in
  Sim.Sched.run sched adversary;
  finish ~mem ~win_value sched

let run =
  run_with ~win_value:1 ~programs:(fun _ le ~k -> Leaderelect.Le.programs le ~k)

let run_tas =
  run_with ~win_value:0 ~programs:(fun mem le ~k ->
      let tas = Primitives.Tas.create mem ~elect:le in
      Array.init k (fun _ ctx -> Primitives.Tas.apply tas ctx))

let pp_outcome ppf o =
  Fmt.pf ppf "winner=%a max_steps=%d max_rmrs=%d total_steps=%d registers=%d"
    Fmt.(option ~none:(any "none") int)
    o.winner o.max_steps o.max_rmrs o.total_steps o.registers
