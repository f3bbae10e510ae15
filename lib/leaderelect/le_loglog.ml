let rung_capacities ~n =
  (* n_i = 2^(2^(2^i)), capped at n; the last rung always has capacity
     n. Exponents b_i = 2^(2^i) satisfy b_(i+1) = b_i^2. *)
  let rec build acc b =
    if b >= 62 then List.rev (n :: acc)
    else
      let cap = 1 lsl b in
      if cap >= n then List.rev (n :: acc)
      else build (cap :: acc) (b * b)
  in
  Array.of_list (build [] 2)

module Make (M : Backend.Mem.S) = struct
  module C = Chain.Make (M)
  module Ge_s = Groupelect.Ge_sift.Make (M)
  module Duel = Primitives.Le2.Make (M)

  type rung = {
    chain : C.t;
    last : bool;
  }

  type t = {
    rungs : rung array;
    finals : Duel.t array;  (** One per rung; winner of rung [i]
        enters [finals.(i)] on port 0 and descends to [finals.(0)]. *)
  }

  let make_rung ~name mem ~capacity ~last =
    let probs = Groupelect.Ge_sift.probability_schedule ~n:capacity in
    let sift_levels = max 1 (Array.length probs) in
    let levels = if last then max capacity sift_levels else sift_levels in
    let ges =
      Array.init levels (fun i ->
          if i < Array.length probs then
            Ge_s.create
              ~name:(Printf.sprintf "%s.sift[%d]" name i)
              mem ~write_prob:probs.(i)
          else
            Groupelect.Ge_dummy.gen
              ~name:(Printf.sprintf "%s.dummy[%d]" name i)
              ())
    in
    { chain = C.create mem ~name ges; last }

  let create ?(name = "loglog") mem ~n =
    if n < 1 then invalid_arg "Le_loglog.create: n must be >= 1";
    let caps = rung_capacities ~n in
    let rungs =
      Array.mapi
        (fun i capacity ->
          make_rung
            ~name:(Printf.sprintf "%s.rung[%d]" name i)
            mem ~capacity
            ~last:(i = Array.length caps - 1))
        caps
    in
    let finals =
      Array.init (Array.length caps) (fun i ->
          Duel.create ~name:(Printf.sprintf "%s.final[%d]" name i) mem)
    in
    { rungs; finals }

  (* The winner of rung [i] must beat the winner of every higher rung:
     it enters the final chain at [i] on port 0 (as a rung winner) and
     moves down; at [j < i] it plays port 1 (as the winner of
     [finals.(j+1)]). The winner of [finals.(0)] wins. *)
  let rec final_descent t ctx j ~entered_at =
    let port = if j = entered_at then 0 else 1 in
    if Duel.elect t.finals.(j) ctx ~port then
      if j = 0 then true else final_descent t ctx (j - 1) ~entered_at
    else false

  let elect t ctx =
    let rec try_rung i =
      let r = t.rungs.(i) in
      match C.forward r.chain ctx ~from_level:0 ~upto:(C.levels r.chain) with
      | Chain.F_lost -> false
      | Chain.F_stopped level ->
          if C.backward r.chain ctx ~stopped_at:level then
            final_descent t ctx i ~entered_at:i
          else false
      | Chain.F_exhausted ->
          if r.last then
            failwith "Le_loglog.elect: last rung exhausted (contention > n?)"
          else try_rung (i + 1)
    in
    try_rung 0
end

include Make (Backend.Sim_mem)
