module Make_fallback (R : Le.S) (M : Backend.Mem.S) = struct
  module C = Chain.Make (M)
  module Ge_s = Groupelect.Ge_sift.Make (M)
  module Rr = R (M)
  module Duel = Primitives.Le2.Make (M)

  type t = {
    chain : C.t;
    fallback : Rr.t;
    top : Duel.t;
  }

  let create ?(name = "aa") mem ~n =
    if n < 1 then invalid_arg "Aa.create: n must be >= 1";
    let probs = Groupelect.Ge_sift.probability_schedule ~n in
    let ges =
      Array.init
        (max 1 (Array.length probs))
        (fun i ->
          if i < Array.length probs then
            Ge_s.create
              ~name:(Printf.sprintf "%s.sift[%d]" name i)
              mem ~write_prob:probs.(i)
          else Groupelect.Ge_dummy.gen ())
    in
    let fallback = Rr.create ~name:(name ^ ".rr") mem ~n in
    {
      chain = C.create mem ~name ges;
      fallback;
      top = Duel.create ~name:(name ^ ".top") mem;
    }

  let elect t ctx =
    match C.forward t.chain ctx ~from_level:0 ~upto:(C.levels t.chain) with
    | Chain.F_lost -> false
    | Chain.F_stopped level ->
        if C.backward t.chain ctx ~stopped_at:level then
          Duel.elect t.top ctx ~port:0
        else false
    | Chain.F_exhausted ->
        if Rr.elect t.fallback ctx then Duel.elect t.top ctx ~port:1
        else false
end

module Make (M : Backend.Mem.S) = Make_fallback (Ratrace.Ratrace_lean.Make) (M)

include Make (Backend.Sim_mem)
