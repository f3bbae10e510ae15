(** Elimination-path leader election: the Section 3 elimination path as
    a standalone n-process election.

    A path of [n] splitter + 2-process-duel nodes; with at most [n]
    participants nobody falls off (Claim 3.1), at least one participant
    stops at a splitter, and the chain of duels funnels exactly one
    winner out of node 0. O(k) worst-case steps, O(1) typical (most
    processes lose at the first few splitters); Theta(n) registers.
    Falling off the right end raises [Failure].

    [M.self] must be distinct per caller (it seeds the splitter
    races). *)

module Make : Le.S

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
