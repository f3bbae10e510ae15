module Make (M : Backend.Mem.S) = struct
  module Path = Ratrace.Elim_path.Make (M)

  type t = Path.t

  let create ?(name = "elim") mem ~n =
    if n < 1 then invalid_arg "Elim_le.create: n must be >= 1";
    Path.create ~name mem ~length:n

  let elect t ctx =
    match Path.run t ctx with
    | Ratrace.Elim_path.Won -> true
    | Ratrace.Elim_path.Lost -> false
    | Ratrace.Elim_path.Fell_off ->
        failwith "Elim_le.elect: fell off the path (more than n entrants?)"
end

include Make (Backend.Sim_mem)
