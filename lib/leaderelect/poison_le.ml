module Make (M : Backend.Mem.S) = struct
  module C = Chain.Make (M)
  module Ge_p = Groupelect.Ge_poison.Make (M)

  type t = { chain : C.t }

  let create ?(name = "poison") mem ~n =
    if n < 1 then invalid_arg "Poison_le.create: n must be >= 1";
    let sched = Groupelect.Ge_poison.schedule ~n in
    let plen = min (Array.length sched) n in
    let ges =
      Array.init n (fun i ->
          if i < plen then
            let write_prob, size = sched.(i) in
            Ge_p.create
              ~name:(Printf.sprintf "%s.ge[%d]" name i)
              mem ~size ~write_prob
          else
            Groupelect.Ge_dummy.gen
              ~name:(Printf.sprintf "%s.dummy[%d]" name i)
              ())
    in
    { chain = C.create mem ~name ges }

  let elect t ctx = C.elect t.chain ctx
end

include Make (Backend.Sim_mem)
