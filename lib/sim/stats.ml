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
