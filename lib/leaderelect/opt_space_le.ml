let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

let chain_levels ~n = min n (3 * ceil_log2 n)

module Make (M : Backend.Mem.S) = struct
  module C = Chain.Make (M)
  module Ge_s = Groupelect.Ge_sift.Make (M)

  type t = {
    sifts : M.ctx Groupelect.Ge.gen array;
    chain : C.t;
    levels : int;
  }

  let create ?(name = "optspace") mem ~n =
    if n < 1 then invalid_arg "Opt_space_le.create: n must be >= 1";
    let probs = Groupelect.Ge_sift.probability_schedule ~n in
    let sifts =
      Array.mapi
        (fun i p ->
          Ge_s.create
            ~name:(Printf.sprintf "%s.lvl[%d]" name i)
            mem ~write_prob:p)
        probs
    in
    let levels = chain_levels ~n in
    let ges =
      Array.init levels (fun i ->
          Groupelect.Ge_dummy.gen
            ~name:(Printf.sprintf "%s.dummy[%d]" name i)
            ())
    in
    { sifts; chain = C.create mem ~name ges; levels }

  let elect t ctx =
    let rec sift i =
      if i >= Array.length t.sifts then true
      else if t.sifts.(i).Groupelect.Ge.elect ctx then sift (i + 1)
      else false
    in
    if not (sift 0) then false
    else
      match C.forward t.chain ctx ~from_level:0 ~upto:t.levels with
      | Chain.F_lost -> false
      | Chain.F_stopped i -> C.backward t.chain ctx ~stopped_at:i
      | Chain.F_exhausted -> false
end

include Make (Backend.Sim_mem)
