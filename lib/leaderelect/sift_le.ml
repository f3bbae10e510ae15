module Make (M : Backend.Mem.S) = struct
  module Ge_s = Groupelect.Ge_sift.Make (M)
  module T = Tournament.Make (M)

  type t = {
    levels : M.ctx Groupelect.Ge.gen array;
    finisher : T.t;
  }

  let create ?(name = "sift") mem ~n =
    if n < 1 then invalid_arg "Sift_le.create: n must be >= 1";
    let probs = Groupelect.Ge_sift.probability_schedule ~n in
    {
      levels =
        Array.mapi
          (fun i p ->
            Ge_s.create
              ~name:(Printf.sprintf "%s.lvl[%d]" name i)
              mem ~write_prob:p)
          probs;
      finisher = T.create ~name:(name ^ ".fin") mem ~n;
    }

  let elect t ctx =
    let rec sift i =
      if i >= Array.length t.levels then true
      else if t.levels.(i).Groupelect.Ge.elect ctx then sift (i + 1)
      else false
    in
    if sift 0 then T.elect t.finisher ctx else false
end

include Make (Backend.Sim_mem)
