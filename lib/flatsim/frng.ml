(* Allocation-free splitmix64, bit-identical to {!Sim.Rng}.

   [Sim.Rng]'s state recurrence is linear — after [i] draws the state is
   [seed + i * golden_gamma (mod 2^64)] — so instead of storing the
   Int64 state (whose every update boxes: ~6 minor words per draw, the
   single largest allocation source of the effect-handler trial loop),
   we store the immutable Int64 base plus a native-int draw counter and
   recompute the state on the fly. Every Int64 intermediate then lives
   only inside [next_int], where the native compiler keeps it unboxed:
   a draw allocates {e nothing} (pinned by test_flatsim's "gc zero
   steady-state allocation" test, which runs every flat entry).

   Parity contract, pinned by test_flatsim:
   - [int t b] equals [Sim.Rng.int t' b] draw-for-draw when both start
     from the same seed (same mixer, same low-63-bit truncation, same
     [mod] reduction);
   - [geometric_capped t l] equals [Sim.Rng.geometric_capped t' l]
     (the low bit of the raw output is the fair coin in both);
   - [reseed] matches [Sim.Rng.reseed]: indistinguishable from a fresh
     generator. *)

type t = { mutable base : int64; mutable idx : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let mask63 = Int64.of_int max_int

let create seed = { base = seed; idx = 0 }

let reseed t seed =
  t.base <- seed;
  t.idx <- 0

(* Low 63 bits of splitmix64's next output, as a native int. The whole
   mixer is hand-inlined so no Int64 crosses a function boundary (there
   is no flambda in the toolchain: out-of-line calls would box). *)
let next_int t =
  let i = t.idx + 1 in
  t.idx <- i;
  let s = Int64.add t.base (Int64.mul golden_gamma (Int64.of_int i)) in
  let z =
    Int64.mul
      (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z mask63)

let int t bound = next_int t mod bound

(* Figure-1 geometric: Pr(x = i) = 2^-i truncated to [1, l]. The fair
   coin is the low bit of the raw draw, exactly as [Sim.Rng.bool]. *)
let geometric_capped t l =
  let rec loop i =
    if i >= l then l else if next_int t land 1 = 1 then i else loop (i + 1)
  in
  loop 1
