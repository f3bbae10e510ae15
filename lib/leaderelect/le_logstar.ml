let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

let default_cutoff ~n = min n (3 * ceil_log2 n)

module Make (M : Backend.Mem.S) = struct
  module C = Chain.Make (M)
  module Ge_l = Groupelect.Ge_logstar.Make (M)

  type t = { chain : C.t }

  let create_cutoff ?(name = "logstar") ~cutoff mem ~n =
    if n < 1 then invalid_arg "Le_logstar.create: n must be >= 1";
    let cutoff = min cutoff n in
    let ges =
      Array.init n (fun i ->
          if i < cutoff then
            Ge_l.create ~name:(Printf.sprintf "%s.ge[%d]" name i) mem ~n
          else
            Groupelect.Ge_dummy.gen
              ~name:(Printf.sprintf "%s.dummy[%d]" name i)
              ())
    in
    { chain = C.create mem ~name ges }

  let create ?name mem ~n = create_cutoff ?name ~cutoff:(default_cutoff ~n) mem ~n

  let elect t ctx = C.elect t.chain ctx
end

include Make (Backend.Sim_mem)
