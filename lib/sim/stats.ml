type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p999 : float;
}

let mean_array xs =
  match Array.length xs with
  | 0 -> invalid_arg "Stats.mean: empty sample"
  | n -> Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let mean xs = mean_array (Array.of_list xs)

(* Nearest-rank percentile on an already-sorted array: O(1). The edge
   shapes are handled explicitly — empty is an explicit error and a
   singleton short-circuits — so no input reaches the rank arithmetic
   able to index out of bounds (p = 0 yields rank -1, p = 1 yields
   rank n - 1; both ends are clamped anyway, by construction). *)
let percentile_sorted sorted p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Stats.percentile: p must be in [0, 1]";
  match Array.length sorted with
  | 0 -> invalid_arg "Stats.percentile: empty sample"
  | 1 -> sorted.(0)
  | n ->
      let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
      sorted.(min (n - 1) (max 0 rank))

let percentile_sorted_opt sorted p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Stats.percentile: p must be in [0, 1]";
  if Array.length sorted = 0 then None else Some (percentile_sorted sorted p)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile xs p = percentile_sorted (sorted_of_list xs) p

(* One sort + one Welford pass, instead of a sort per percentile and a
   List.nth walk per rank. *)
let summarize_sorted sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let mean = ref 0.0 and m2 = ref 0.0 in
  for i = 0 to n - 1 do
    let x = sorted.(i) in
    let d = x -. !mean in
    mean := !mean +. (d /. float_of_int (i + 1));
    m2 := !m2 +. (d *. (x -. !mean))
  done;
  let var = if n < 2 then 0.0 else !m2 /. float_of_int (n - 1) in
  {
    count = n;
    mean = !mean;
    stddev = sqrt var;
    min = sorted.(0);
    max = sorted.(n - 1);
    median = percentile_sorted sorted 0.5;
    p95 = percentile_sorted sorted 0.95;
    p999 = percentile_sorted sorted 0.999;
  }

let summarize_array xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  summarize_sorted sorted

let summarize xs = summarize_sorted (sorted_of_list xs)

(* Log-spaced bucket indexing for bounded-memory histograms: 32
   sub-buckets per power of two, so any value maps to a bucket whose
   width is at most 1/32 of its lower bound — percentiles read off the
   bucket midpoints are within ~1.6% of the exact ones. Kept here (not
   in the service layer) so every consumer of bucketed percentiles
   shares one indexing scheme. *)
module Logbucket = struct
  let sub = 32
  let octaves = 52
  let count = 1 + (octaves * sub)

  (* Bucket 0 is [0, 1) (and any negative or NaN input); bucket
     [1 + oct*sub + s] covers [2^oct * (1 + s/sub), 2^oct * (1 +
     (s+1)/sub)). Monotone in the value. *)
  let of_value v =
    if not (v >= 1.0) then 0
    else begin
      let m, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1), so v in [2^oct, 2^(oct+1)). *)
      let oct = e - 1 in
      if oct >= octaves then count - 1
      else begin
        let s = int_of_float ((Float.ldexp m 1 -. 1.0) *. float_of_int sub) in
        let s = if s > sub - 1 then sub - 1 else s in
        1 + (oct * sub) + s
      end
    end

  let lower i =
    if i <= 0 then 0.0
    else begin
      let i = min i (count - 1) in
      let oct = (i - 1) / sub and s = (i - 1) mod sub in
      Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub)) oct
    end

  let upper i =
    if i < 0 then 0.0
    else if i = 0 then 1.0
    else if i >= count - 1 then infinity
    else begin
      let oct = (i - 1) / sub and s = (i - 1) mod sub in
      if s = sub - 1 then Float.ldexp 1.0 (oct + 1)
      else Float.ldexp (1.0 +. (float_of_int (s + 1) /. float_of_int sub)) oct
    end

  let midpoint i =
    if i <= 0 then 0.5
    else if i >= count - 1 then lower (count - 1)
    else (lower i +. upper i) /. 2.0
end
