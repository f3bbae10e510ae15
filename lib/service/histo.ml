(* Latency recording for the service driver, in two interchangeable
   modes sharing one interface and one merge algebra:

   - [`Log]: one [Obs.Logbucket] histogram (32 sub-buckets per
     octave). Memory is bounded by the bucket count regardless of
     sample count; percentiles are read off bucket midpoints, within
     ~1.6% relative error. Mean and max stay exact.
   - [`Exact]: every sample in a growing float array; percentiles are
     exact nearest-rank. For small runs and for cross-checking the
     bucketed mode in tests.

   Merge is associative and commutative in both modes (bucket-wise
   count addition, resp. sample concatenation — percentile extraction
   sorts), which is what lets sharded driver runs combine per-shard
   partials into a report identical to the single-shard run. *)

module LB = Obs.Logbucket

type exact = {
  mutable xs : float array;
  mutable n : int;
  acc : float array;  (* [| sum; max |]: a float array stores unboxed *)
}

type t = Log of LB.t | Exact of exact

let create = function
  | `Log -> Log (LB.create ())
  | `Exact ->
      Exact { xs = Array.make 256 0.0; n = 0; acc = [| 0.0; neg_infinity |] }

let mode = function Log _ -> `Log | Exact _ -> `Exact
let mode_name = function Log _ -> "hist" | Exact _ -> "exact"
let count = function Log h -> LB.n h | Exact e -> e.n

let observe t v =
  match t with
  | Log h -> LB.observe h v
  | Exact e ->
      if e.n = Array.length e.xs then begin
        let nxs = Array.make (2 * e.n) 0.0 in
        Array.blit e.xs 0 nxs 0 e.n;
        e.xs <- nxs
      end;
      e.xs.(e.n) <- v;
      e.n <- e.n + 1;
      e.acc.(0) <- e.acc.(0) +. v;
      if v > e.acc.(1) then e.acc.(1) <- v

let merge_into ~into src =
  match (into, src) with
  | Log into, Log src -> LB.merge_into ~into src
  | Exact into, Exact src ->
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
      Array.blit src.xs 0 into.xs into.n src.n;
      into.n <- need;
      into.acc.(0) <- into.acc.(0) +. src.acc.(0);
      if src.acc.(1) > into.acc.(1) then into.acc.(1) <- src.acc.(1)
  | _ -> invalid_arg "Histo.merge_into: mixed exact/log modes"

type snapshot = {
  s_n : int;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : float;
}

let summary n sum mx pct =
  if n = 0 then None
  else
    Some
      {
        s_n = n;
        s_mean = sum /. float_of_int n;
        s_p50 = pct 0.5;
        s_p95 = pct 0.95;
        s_p99 = pct 0.99;
        s_p999 = pct 0.999;
        s_max = mx;
      }

let snapshot = function
  | Log h -> summary (LB.n h) (LB.sum h) (LB.max h) (LB.percentile h)
  | Exact e ->
      let sorted = Array.sub e.xs 0 e.n in
      Array.sort Float.compare sorted;
      summary e.n e.acc.(0) e.acc.(1) (Sim.Stats.percentile_sorted sorted)
