(** Sifting leader election: Theta(log log n) sifting Group Elections
    (Alistarh–Aspnes) followed by a tournament over the O(1) expected
    survivors.

    Every sifting level keeps at least one participant (a writer is
    always elected, and if nobody writes, everybody reads 0), and the
    tournament elects exactly one of the survivors, so the composite is
    a safe leader election for up to [n] participants with Theta(n)
    registers. Expected steps are dominated by the tournament climb:
    O(log n), with the sifting prefix cutting the {e contention} — not
    the depth — to O(1) after O(log log n) levels against the
    R/W-oblivious adversary.

    [M.self] is the tournament leaf; it must be below [n] rounded up
    to a power of two. *)

module Make : Le.S

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
