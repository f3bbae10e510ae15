let round_robin () =
  let counter = ref 0 in
  let decide (view : Sched.view) =
    let r = view.runnable in
    let m = Running.length r in
    if m = 0 then Sched.halt
    else begin
      (* The next runnable pid at or after the cursor, cyclically. *)
      let i = ref 0 in
      while !i < m && Running.get r !i < !counter do
        incr i
      done;
      let pid = Running.get r (if !i = m then 0 else !i) in
      counter := pid + 1;
      pid
    end
  in
  { Sched.adv_name = "round-robin"; adv_klass = Sched.Oblivious; decide }

(* [Rng.int]'s value before its [mod]: splitmix64 draw [i] of the
   stream seeded [base] (constants as in rng.ml), with every Int64
   unboxed. *)
let[@inline] draw base i =
  let z = Int64.(add base (mul 0x9E3779B97F4A7C15L (of_int i))) in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(to_int (logand (logxor z (shift_right_logical z 31)) 0x3FFFFFFFFFFFFFFFL))

(* Draw [at] of the stream seeded [base], mixed a decision ahead. *)
type ahead = { mutable v : int; mutable at : int; mutable base : int64 }

(* One [Rng.int rng m] per decision, draw for draw, with two shortcuts:
   draw i+1 is mixed before pid i returns, so its multiplies overlap the
   runner's next step, and a lone runnable pid counts its draw unmixed
   ([Rng.int _ 1] is 0). A draw is a function of the seed and its index
   alone, so the carry is used only when both match, and a [Rng.reseed]
   never reads a stale one. *)
let random_from (rng : Rng.t) =
  let c = { v = 0; at = 0; base = rng.base } in
  let decide (view : Sched.view) =
    let r = view.runnable in
    let m = r.n in
    if m = 0 then Sched.halt
    else begin
      let i = rng.idx + 1 in
      rng.idx <- i;
      if m = 1 then Array.unsafe_get r.arr r.base
      else begin
        let base = rng.base in
        let v = if c.at = i && c.base == base then c.v else draw base i in
        let pid = Array.unsafe_get r.arr (r.base + (v mod m)) in
        if c.base != base then c.base <- base;
        c.v <- draw base (i + 1);
        c.at <- i + 1;
        pid
      end
    end
  in
  { Sched.adv_name = "random-oblivious"; adv_klass = Sched.Oblivious; decide }

let random_oblivious ~seed = random_from (Rng.create seed)

let fixed_schedule ?(then_halt = true) schedule =
  let pos = ref 0 in
  let fallback = round_robin () in
  let decide (view : Sched.view) =
    if Running.length view.runnable = 0 then Sched.halt
    else begin
      (* Skip schedule slots of processes that are no longer running. *)
      while
        !pos < Array.length schedule
        && not (Running.mem view.runnable schedule.(!pos))
      do
        incr pos
      done;
      if !pos < Array.length schedule then begin
        let pid = schedule.(!pos) in
        incr pos;
        pid
      end
      else if then_halt then Sched.halt
      else fallback.Sched.decide view
    end
  in
  { Sched.adv_name = "fixed-schedule"; adv_klass = Sched.Oblivious; decide }

let adaptive name decide =
  { Sched.adv_name = name; adv_klass = Sched.Adaptive; decide }

let location_oblivious name decide =
  { Sched.adv_name = name; adv_klass = Sched.Location_oblivious; decide }
