type duel = { a : Sim.Register.t; b : Sim.Register.t }

let duel2 ?(name = "obduel") mem =
  {
    a = Sim.Register.create ~name:(name ^ ".pos0") mem;
    b = Sim.Register.create ~name:(name ^ ".pos1") mem;
  }

(* The Le2 protocol with the coin removed: always advance. Identical
   safety argument (thresholds -3/+2); liveness only when one side gets
   to run ahead of the other. *)
let duel_elect t ctx ~port =
  if port <> 0 && port <> 1 then
    invalid_arg "Le_obstruction.duel_elect: port must be 0 or 1";
  let mine, other = if port = 0 then (t.a, t.b) else (t.b, t.a) in
  let rec loop pos =
    let o = Sim.Ctx.read ctx other in
    if o >= pos + 2 then false
    else if o <= pos - 3 then true
    else begin
      let pos' = pos + 1 in
      Sim.Ctx.write ctx mine pos';
      loop pos'
    end
  in
  loop 0

type t = {
  sps : Primitives.Splitter.t array;
  duels : duel array;
}

let create ?(name = "obfree") mem ~n =
  if n < 1 then invalid_arg "Le_obstruction.create: n must be >= 1";
  {
    sps =
      Array.init n (fun i ->
          Primitives.Splitter.create ~name:(Printf.sprintf "%s.sp[%d]" name i) mem);
    duels =
      Array.init n (fun i -> duel2 ~name:(Printf.sprintf "%s.du[%d]" name i) mem);
  }

let elect t ctx =
  let len = Array.length t.sps in
  let rec backward stopped_at j =
    let port = if j = stopped_at then 0 else 1 in
    if duel_elect t.duels.(j) ctx ~port then
      if j = 0 then true else backward stopped_at (j - 1)
    else false
  in
  let rec forward i =
    if i >= len then
      failwith "Le_obstruction.elect: fell off the path (more than n entrants?)"
    else
      match Primitives.Splitter.split t.sps.(i) ctx with
      | Primitives.Splitter.L -> false
      | Primitives.Splitter.R -> forward (i + 1)
      | Primitives.Splitter.S -> backward i i
  in
  forward 0

let make mem ~n = elect (create mem ~n)
