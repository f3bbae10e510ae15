type t = { cdf : float array; prob : float array; alias : int array }

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if not (Float.is_finite s && s >= 0.0) then
    invalid_arg "Zipf.create: s must be finite and >= 0";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !total
  done;
  (* Normalise so the last entry is exactly 1.0 and no [Rng.float] draw
     (always < 1.0) can fall past it. *)
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. !total
  done;
  cdf.(n - 1) <- 1.0;
  (* Alias table (Vose's method) over the same normalised pmf: each
     column i keeps its own mass with threshold [prob.(i)] and donates
     the rest to [alias.(i)], making a draw O(1) — one uniform, one
     compare — instead of the CDF binary search. *)
  let prob = Array.make n 1.0 and alias = Array.init n (fun i -> i) in
  let scaled =
    Array.init n (fun i ->
        let p = if i = 0 then cdf.(0) else cdf.(i) -. cdf.(i - 1) in
        p *. float_of_int n)
  in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if scaled.(i) < 1.0 then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    let s_i = small.(!ns) in
    let l_i = large.(!nl - 1) in
    prob.(s_i) <- scaled.(s_i);
    alias.(s_i) <- l_i;
    scaled.(l_i) <- scaled.(l_i) -. (1.0 -. scaled.(s_i));
    if scaled.(l_i) < 1.0 then begin
      decr nl;
      small.(!ns) <- l_i;
      incr ns
    end
  done;
  (* Leftovers (from either stack) keep full mass: prob stays 1.0. *)
  { cdf; prob; alias }

let size t = Array.length t.cdf

let pmf t i =
  if i < 0 || i >= size t then invalid_arg "Zipf.pmf: index out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

(* O(1) alias draw. Consumes exactly one [Rng.float], like the CDF
   oracle below, so the two samplers are drop-in stream-compatible. *)
let sample t rng =
  let u = Sim.Rng.float rng in
  let n = Array.length t.prob in
  let x = u *. float_of_int n in
  let i = int_of_float x in
  let i = if i >= n then n - 1 else i in
  if x -. float_of_int i < t.prob.(i) then i else t.alias.(i)

(* First index whose cumulative weight exceeds u: binary search. Kept
   as the test oracle for the alias table — same draw count, same
   distribution (and for uniform power-of-two keyspaces, the identical
   key per draw). *)
let sample_cdf t rng =
  let u = Sim.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
