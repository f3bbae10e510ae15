let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

let tree_height ~n = 3 * ceil_log2 n

module Make (M : Backend.Mem.S) = struct
  module Tree = Primary_tree.Make (M)
  module Grid = Backup_grid.Make (M)
  module Duel = Primitives.Le2.Make (M)

  type t = {
    tree : Tree.t;
    grid : Grid.t;
    top : Duel.t;
  }

  let create ?(name = "ratrace") mem ~n =
    if n < 1 then invalid_arg "Ratrace.create: n must be >= 1";
    {
      tree = Tree.create ~name:(name ^ ".tree") mem ~height:(tree_height ~n);
      grid = Grid.create ~name:(name ^ ".grid") mem ~n;
      top = Duel.create ~name:(name ^ ".top") mem;
    }

  let top_elect t ctx ~port =
    M.enter ctx "rr_top";
    let won = Duel.elect t.top ctx ~port in
    M.leave ctx "rr_top";
    won

  let elect t ctx =
    match Tree.run t.tree ctx with
    | Primary_tree.Won -> top_elect t ctx ~port:0
    | Primary_tree.Lost -> false
    | Primary_tree.Fell_off _ -> (
        match Grid.run t.grid ctx with
        | Backup_grid.Won -> top_elect t ctx ~port:1
        | Backup_grid.Lost -> false)
end

include Make (Backend.Sim_mem)
