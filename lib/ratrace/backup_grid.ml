type outcome = Lost | Won

module Make (M : Backend.Mem.S) = struct
  module Sp = Primitives.Splitter.Make (M)
  module Duel3 = Primitives.Le3.Make (M)

  (* Node (i, j) is entry [i * n + j] of each table (row-major). A trial
     touches O(k) of the n^2 nodes, so the tables build a node on first
     access. *)
  type t = { sps : Sp.t M.table; les : Duel3.t M.table; n : int }

  let create ?(name = "grid") mem ~n =
    if n < 1 then invalid_arg "Backup_grid.create: n must be >= 1";
    let make part f =
      M.table mem ~name:(name ^ part) (n * n) (fun ij -> f (ij / n) (ij mod n))
    in
    {
      sps =
        make ".sp" (fun i j ->
            Sp.create ~name:(Printf.sprintf "%s.sp[%d,%d]" name i j) mem);
      les =
        make ".le" (fun i j ->
            Duel3.create ~name:(Printf.sprintf "%s.le[%d,%d]" name i j) mem);
      n;
    }

  (* Retrace the path backwards; [path] lists the nodes from the stopping
     node back to (0,0), each paired with the port to use there: 0 at the
     stopping node, then 1 when we arrived from (i+1,j), 2 from (i,j+1). *)
  let rec retrace t ctx = function
    | [] -> Won
    | ((i, j), port) :: rest ->
        if Duel3.elect (M.get t.les ((i * t.n) + j)) ctx ~port then
          retrace t ctx rest
        else Lost

  let run ?(notify_stop = fun () -> ()) t ctx =
    let rec descend i j path =
      if i + j >= t.n then
        failwith
          "Backup_grid.run: process left the grid (more than n entrants?)"
      else
        match Sp.split (M.get t.sps ((i * t.n) + j)) ctx with
        | Primitives.Splitter.S ->
            notify_stop ();
            retrace t ctx (((i, j), 0) :: path)
        | Primitives.Splitter.L -> descend (i + 1) j (((i, j), 1) :: path)
        | Primitives.Splitter.R -> descend i (j + 1) (((i, j), 2) :: path)
    in
    M.enter ctx "rr_grid";
    let r = descend 0 0 [] in
    M.leave ctx "rr_grid";
    r
end

include Make (Backend.Sim_mem)
