(* splitmix64 whose state never leaves a register.

   The state recurrence is linear — after [i] draws the state is
   [base + i * golden_gamma (mod 2^64)] — so instead of storing the
   Int64 state (each update would box it) we store the seed as [base]
   plus a native-int draw counter and recompute the state per draw.
   Every Int64 intermediate of a draw then lives inside one function
   body, where ocamlopt keeps it unboxed: [int], [bool] and
   [geometric_capped] allocate nothing, and [float] only its result
   when a call returns it boxed. *)

type t = { mutable base : int64; mutable idx : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { base = seed; idx = 0 }

let copy t = { base = t.base; idx = t.idx }

let reseed t seed =
  t.base <- seed;
  t.idx <- 0

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The next raw output. Inlined into each draw below so the result
   never crosses a function boundary boxed. *)
let[@inline] raw t =
  let i = t.idx + 1 in
  t.idx <- i;
  mix (Int64.add t.base (Int64.mul golden_gamma (Int64.of_int i)))

let next t = raw t

(* Splitmix-style stream derivation: feed the stream index through the
   output mixer before combining, so nearby streams (0, 1, 2, ...) land
   in unrelated regions of the state space. Unlike the collision-prone
   [seed * c] idiom this is injective in [stream] for a fixed [seed] and
   avalanches in both arguments. *)
let derive seed ~stream =
  mix
    (Int64.add
       (Int64.logxor seed (mix (Int64.of_int stream)))
       golden_gamma)

(* The first [float] draw of [create seed], computed without
   allocating the generator record — the zero-allocation path for
   one-shot jitter draws (service backoff runs this per retry event).
   Scaling by [0x1p-53] instead of dividing by [2^53] is exact (both
   only adjust the exponent) and skips the FP divide. *)
let float_of_seed seed =
  let v =
    Int64.shift_right_logical (mix (Int64.add seed golden_gamma)) 11
  in
  Int64.to_float v *. 0x1p-53

(* Exactly [float_of_seed (derive (derive seed ~stream:client)
   ~stream:attempt)], fused into one function. Each cross-module
   [derive] call boxes its [int64] result (no flambda); on the service
   driver's per-event backoff path those two boxes were the only
   allocations left, so the fusion keeps the sub-seeds in registers.
   Kept bit-identical to the composed form — test_service pins it. *)
let jitter_of_seed seed ~client ~attempt =
  let s1 =
    mix
      (Int64.add (Int64.logxor seed (mix (Int64.of_int client))) golden_gamma)
  in
  let s2 =
    mix
      (Int64.add (Int64.logxor s1 (mix (Int64.of_int attempt))) golden_gamma)
  in
  let v = Int64.shift_right_logical (mix (Int64.add s2 golden_gamma)) 11 in
  Int64.to_float v *. 0x1p-53

let mask63 = Int64.of_int max_int

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.logand (raw t) mask63) mod bound

let[@inline] bool t = Int64.logand (raw t) 1L = 1L

let[@inline] float t =
  let v = Int64.shift_right_logical (raw t) 11 in
  Int64.to_float v *. 0x1p-53 (* exact: same bits as dividing by 2^53 *)

let below t p = float t < p

let geometric_capped t l =
  if l < 1 then invalid_arg "Rng.geometric_capped: l must be >= 1";
  let i = ref 1 in
  while !i < l && not (bool t) do
    incr i
  done;
  !i
