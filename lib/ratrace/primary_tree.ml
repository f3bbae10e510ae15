type outcome = Lost | Won | Fell_off of int

module Make (M : Backend.Mem.S) = struct
  module Rsp = Primitives.Rsplitter.Make (M)
  module Duel3 = Primitives.Le3.Make (M)

  (* Heap layout, index 1..2^(h+1)-1; slot 0 is declared but unused. A
     trial touches O(k h) of the 2^(h+1) nodes, so the tables build a
     node on first access. *)
  type t = {
    rsps : Rsp.t M.table;
    les : Duel3.t M.table;
    h : int;
  }

  let create ?(name = "tree") mem ~height =
    if height < 0 then invalid_arg "Primary_tree.create: height must be >= 0";
    let nodes = (1 lsl (height + 1)) - 1 in
    {
      rsps =
        M.table mem ~name:(name ^ ".rsp") (nodes + 1) (fun v ->
            Rsp.create ~name:(Printf.sprintf "%s.rsp[%d]" name v) mem);
      les =
        M.table mem ~name:(name ^ ".le") (nodes + 1) (fun v ->
            Duel3.create ~name:(Printf.sprintf "%s.le[%d]" name v) mem);
      h = height;
    }

  let height t = t.h

  let leaves t = 1 lsl t.h

  (* Ascend from node [v], having already won entry to its election on
     [port]. Moving up from a left child uses port 1, from a right child
     port 2. *)
  let rec ascend_loop t ctx v ~port =
    if Duel3.elect (M.get t.les v) ctx ~port then
      if v = 1 then true
      else ascend_loop t ctx (v / 2) ~port:(if v land 1 = 0 then 1 else 2)
    else false

  let ascend t ctx v ~port =
    M.enter ctx "rr_ascend";
    let won = ascend_loop t ctx v ~port in
    M.leave ctx "rr_ascend";
    won

  let run ?(notify_stop = fun () -> ()) t ctx =
    let first_leaf = 1 lsl t.h in
    let rec descend v =
      match Rsp.split (M.get t.rsps v) ctx with
      | Primitives.Splitter.S ->
          notify_stop ();
          M.leave ctx "rr_tree";
          if ascend t ctx v ~port:0 then Won else Lost
      | Primitives.Splitter.L ->
          if v >= first_leaf then begin
            M.leave ctx "rr_tree";
            Fell_off (v - first_leaf)
          end
          else descend (2 * v)
      | Primitives.Splitter.R ->
          if v >= first_leaf then begin
            M.leave ctx "rr_tree";
            Fell_off (v - first_leaf)
          end
          else descend ((2 * v) + 1)
    in
    M.enter ctx "rr_tree";
    descend 1

  let ascend_from_leaf t ctx ~leaf =
    if leaf < 0 || leaf >= leaves t then
      invalid_arg "Primary_tree.ascend_from_leaf: bad leaf";
    ascend t ctx ((1 lsl t.h) + leaf) ~port:1
end

include Make (Backend.Sim_mem)
