(** Sifting Group Election (Alistarh and Aspnes, DISC 2011), for the
    R/W-oblivious adversary.

    One shared register. A participant writes it with probability
    [write_prob] (and is elected), or reads it (and is elected iff it
    reads before any write lands). The R/W-oblivious adversary knows the
    register a process will touch but not whether it reads or writes, so
    it cannot selectively delay the writers.

    With [k] participants the expected number elected is at most
    [write_prob * k + 1/write_prob]; choosing [write_prob = 1/sqrt k]
    gives [f(k) ~ 2 sqrt k]. *)

val resolution : int
(** Fixed-point denominator of [write_prob]: a round flips in
    [0, resolution) and writes iff the draw lands below
    {!threshold}[ write_prob]. Exposed so alternative kernels can
    reproduce the draw bit-for-bit. *)

val threshold : float -> int
(** [threshold write_prob] is [write_prob * resolution], rounded down
    and floored at 1. Shared by {!Ge_poison} and the flat kernel's
    compiled rounds. *)

module Make (M : Backend.Mem.S) : sig
  val create : ?name:string -> M.mem -> write_prob:float -> M.ctx Ge.gen
end

val create : ?name:string -> Sim.Memory.t -> write_prob:float -> Ge.t

val probability_schedule : n:int -> float array
(** [probability_schedule ~n] is the per-level write probabilities
    [1 / sqrt k_j] for the contention forecast [k_0 = n],
    [k_(j+1) = 2 sqrt k_j + 1], continuing while [k_j > 8] (the forecast's
    fixed point is ~5.83 — the O(1) survivor count sifting converges to).
    Its length is Theta(log log n) — the number of sifting levels needed
    to drive the expected contention to a constant. *)
