(* Latency recording for the service driver, in two interchangeable
   modes sharing one interface and one merge algebra:

   - [`Log]: a log-bucketed histogram over Sim.Stats.Logbucket's
     scheme (32 sub-buckets per octave). Memory is bounded by the
     bucket count regardless of sample count; percentiles are read off
     bucket midpoints, within ~1.6% relative error. Mean and max stay
     exact (tracked as scalars).
   - [`Exact]: every sample in a growing float array; percentiles are
     exact nearest-rank. For small runs and for cross-checking the
     bucketed mode in tests.

   Merge is associative and commutative in both modes (bucket-wise
   count addition, resp. sample concatenation — percentile extraction
   sorts), which is what lets sharded driver runs combine per-shard
   partials into a report identical to the single-shard run. *)

module LB = Sim.Stats.Logbucket

type t = {
  log : bool;
  counts : int array;  (* [`Log] buckets; [||] in exact mode *)
  mutable xs : float array;  (* [`Exact] samples; [||] in log mode *)
  mutable n : int;
  mutable sum : float;
  mutable mx : float;
}

let create mode =
  match mode with
  | `Exact ->
      {
        log = false;
        counts = [||];
        xs = Array.make 256 0.0;
        n = 0;
        sum = 0.0;
        mx = neg_infinity;
      }
  | `Log ->
      {
        log = true;
        counts = Array.make LB.count 0;
        xs = [||];
        n = 0;
        sum = 0.0;
        mx = neg_infinity;
      }

let mode t = if t.log then `Log else `Exact
let mode_name t = if t.log then "hist" else "exact"
let count t = t.n

let observe t v =
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v > t.mx then t.mx <- v;
  if t.log then begin
    let b = LB.of_value v in
    t.counts.(b) <- t.counts.(b) + 1
  end
  else begin
    if t.n > Array.length t.xs then begin
      let nxs = Array.make (2 * Array.length t.xs) 0.0 in
      Array.blit t.xs 0 nxs 0 (t.n - 1);
      t.xs <- nxs
    end;
    t.xs.(t.n - 1) <- v
  end

let merge_into ~into src =
  if into.log <> src.log then
    invalid_arg "Histo.merge_into: mixed exact/log modes";
  if src.n > 0 then begin
    if into.log then
      Array.iteri
        (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
        src.counts
    else begin
      let need = into.n + src.n in
      if need > Array.length into.xs then begin
        let cap = ref (max 256 (Array.length into.xs)) in
        while !cap < need do
          cap := 2 * !cap
        done;
        let nxs = Array.make !cap 0.0 in
        Array.blit into.xs 0 nxs 0 into.n;
        into.xs <- nxs
      end;
      Array.blit src.xs 0 into.xs into.n src.n
    end;
    into.n <- into.n + src.n;
    into.sum <- into.sum +. src.sum;
    if src.mx > into.mx then into.mx <- src.mx
  end

type snapshot = {
  s_n : int;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : float;
}

(* Nearest-rank percentile over the bucket counts: same rank rule as
   Sim.Stats.percentile_sorted, with the bucket midpoint standing in
   for the sample value. *)
let log_percentile t p =
  let rank = int_of_float (ceil (p *. float_of_int t.n)) - 1 in
  let rank = min (t.n - 1) (max 0 rank) in
  let acc = ref 0 and b = ref 0 and found = ref (-1) in
  while !found < 0 && !b < Array.length t.counts do
    acc := !acc + t.counts.(!b);
    if !acc > rank then found := !b;
    incr b
  done;
  (* Clamp to the exact max so a top-bucket midpoint can never report
     a percentile above the largest observed sample. *)
  Float.min (LB.midpoint (max 0 !found)) t.mx

let snapshot t =
  if t.n = 0 then None
  else if t.log then
    Some
      {
        s_n = t.n;
        s_mean = t.sum /. float_of_int t.n;
        s_p50 = log_percentile t 0.5;
        s_p95 = log_percentile t 0.95;
        s_p99 = log_percentile t 0.99;
        s_p999 = log_percentile t 0.999;
        s_max = t.mx;
      }
  else begin
    let sorted = Array.sub t.xs 0 t.n in
    Array.sort Float.compare sorted;
    let pct = Sim.Stats.percentile_sorted sorted in
    Some
      {
        s_n = t.n;
        s_mean = t.sum /. float_of_int t.n;
        s_p50 = pct 0.5;
        s_p95 = pct 0.95;
        s_p99 = pct 0.99;
        s_p999 = pct 0.999;
        s_max = t.mx;
      }
  end
