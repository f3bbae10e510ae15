let leaves ~n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

module Make_duel (D : Primitives.Duel.S) (M : Backend.Mem.S) = struct
  module Duel = D (M)

  type t = {
    les : Duel.t array;  (* heap layout, internal nodes 1..leaves-1 *)
    leaves : int;
  }

  let create ?(name = "tournament") mem ~n =
    if n < 1 then invalid_arg "Tournament.create: n must be >= 1";
    let leaves = leaves ~n in
    {
      les =
        Array.init leaves (fun v ->
            Duel.create ~name:(Printf.sprintf "%s.le[%d]" name v) mem);
      leaves;
    }

  let elect t ctx =
    let p = M.self ctx in
    if p >= t.leaves then invalid_arg "Tournament.elect: pid out of range";
    let rec up v =
      if v = 1 then true
      else
        let port = v land 1 in
        if Duel.elect t.les.(v / 2) ctx ~port then up (v / 2) else false
    in
    up (t.leaves + p)
end

module Make (M : Backend.Mem.S) = Make_duel (Primitives.Le2.Make) (M)

include Make (Backend.Sim_mem)
