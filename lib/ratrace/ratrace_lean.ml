let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

let tree_height ~n = ceil_log2 n

let path_count ~n =
  let h = ceil_log2 n in
  max 1 ((n + h - 1) / h)

let path_length ~n = 4 * ceil_log2 n

module Make (M : Backend.Mem.S) = struct
  module Tree = Primary_tree.Make (M)
  module Path = Elim_path.Make (M)
  module Duel = Primitives.Le2.Make (M)

  type t = {
    tree : Tree.t;
    paths : Path.t array;
    backup : Path.t;
    top : Duel.t;
    leaves_per_path : int;
  }

  let create ?(name = "rr-lean") mem ~n =
    if n < 1 then invalid_arg "Ratrace_lean.create: n must be >= 1";
    let h = tree_height ~n in
    let count = path_count ~n in
    {
      tree = Tree.create ~name:(name ^ ".tree") mem ~height:h;
      paths =
        Array.init count (fun i ->
            Path.create
              ~name:(Printf.sprintf "%s.ep[%d]" name i)
              mem ~length:(path_length ~n));
      backup = Path.create ~name:(name ^ ".backup") mem ~length:n;
      top = Duel.create ~name:(name ^ ".top") mem;
      leaves_per_path = h;
    }

  let top_elect t ctx ~port =
    M.enter ctx "rr_top";
    let won = Duel.elect t.top ctx ~port in
    M.leave ctx "rr_top";
    won

  let elect_notify ~notify_splitter_win:notify_stop t ctx =
    let win_tree () = top_elect t ctx ~port:0 in
    let backup () =
      match Path.run ~notify_stop t.backup ctx with
      | Elim_path.Won -> top_elect t ctx ~port:1
      | Elim_path.Lost -> false
      | Elim_path.Fell_off ->
          failwith "Ratrace_lean: fell off the length-n backup path"
    in
    match Tree.run ~notify_stop t.tree ctx with
    | Primary_tree.Won -> win_tree ()
    | Primary_tree.Lost -> false
    | Primary_tree.Fell_off j -> (
        let i = min (j / t.leaves_per_path) (Array.length t.paths - 1) in
        match Path.run ~notify_stop t.paths.(i) ctx with
        | Elim_path.Won ->
            if Tree.ascend_from_leaf t.tree ctx ~leaf:i then win_tree ()
            else false
        | Elim_path.Lost -> false
        | Elim_path.Fell_off -> backup ())

  let elect t ctx = elect_notify ~notify_splitter_win:(fun () -> ()) t ctx
end

include Make (Backend.Sim_mem)
