(** Leader election in Theta(log n) registers, after Giakkoupis, Helmi,
    Higham and Woelfel ({e Deterministic and Fast Randomized
    Test-and-Set in Optimal Space}, 2015) — meeting the repo's own R6
    Omega(log n) covering lower bound from above.

    Structure: an O(log log n)-level {!Groupelect.Ge_sift} prefix (one
    register per level) drives the expected contention to O(1), then a
    short chain of [3 ceil(log2 n)] splitter/duel levels (no group
    elections — the sift already did that job) elects the winner. Total
    space is O(log log n) + 12 ceil(log2 n) = Theta(log n) registers,
    against {!Le_logstar}'s and the tournament's Theta(n).

    Safety (at most one winner) is the chain's and is unconditional.
    Liveness deviates from the original paper, which recycles registers
    to keep liveness unconditional in optimal space: here a crash-free
    execution elects exactly one winner whenever [k <= 3 ceil(log2 n)]
    participate — a chain level always retires at least one process and
    a solo process always stops, so the chain cannot be exhausted — and
    otherwise with high probability (more than [3 ceil(log2 n)]
    processes must all survive every sift round, where the expected
    survivor count is O(1); on the astronomically rare exhaust every
    participant loses and the TAS grants nobody, which is safe but not
    live). The differential and model-check suites run well inside the
    deterministic regime.

    Expected steps against the R/W-oblivious adversary: O(log log k)
    sift rounds plus the O(1)-expected chain spine. *)

val chain_levels : n:int -> int
(** Number of splitter/duel levels: [min n (3 * ceil_log2 n)] — the
    deterministic-liveness participant bound. *)

module Make : Le.S

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
