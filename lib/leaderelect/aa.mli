(** Baseline: the Alistarh–Aspnes leader election (DISC 2011),
    non-adaptive O(log log n) expected steps against the R/W-oblivious
    adversary.

    Theta(log log n) sifting levels (within the Section 2.1 chain, so a
    level's sifting survivors still face that level's splitter) reduce
    the crowd to an expected constant; processes that exhaust the
    sifting levels fall through to a RatRace. In the original paper the
    fallback is the Theta(n^3) RatRace; [Make] uses the lean Theta(n)
    variant, and [Make_fallback (Ratrace.Rr_classic.Make)] the original,
    for faithful space accounting. *)

module Make_fallback (R : Le.S) : Le.S
(** The fallback election [R] gets the registers named [<name>.rr]. *)

module Make : Le.S
(** Lean fallback: [Make_fallback (Ratrace.Ratrace_lean.Make)]. *)

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
