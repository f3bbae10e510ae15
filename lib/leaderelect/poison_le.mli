(** Leader election from PoisonPill rounds (Alistarh, Gelashvili and
    Vladu, {e How to Elect a Leader Faster than a Tournament},
    PODC 2015), adapted to the paper's chain construction.

    The chain's first levels carry {!Groupelect.Ge_poison} rounds on
    the [1/sqrt k] decay schedule; the rest are free dummies, as in
    {!Le_logstar}. Each level's splitter door is the doorway: the first
    process to stop at a level closes it, and every survivor of the
    poison rounds that arrives later takes [L] there, so sub-election
    traffic never leaks past the doorway. Survivors then win the
    2-process duels back to level 0.

    Safety is the chain's and is unconditional: the winner is decided
    solely by splitters and duels, whatever the poison coins do. In a
    crash-free execution at least one process survives every poison
    round ({!Groupelect.Ge_poison}), and a chain of [n] levels cannot
    be exhausted by [n] processes, so exactly one process wins.

    Expected steps are sub-logarithmic against the adaptive adversary:
    O(log log k) poison rounds (the sift forecast), each a
    constant-size scan ({!Ge_poison.max_cells}), plus the O(1)-expected
    splitter/duel spine — below the tournament's Theta(log n) curve,
    measured in EXPERIMENTS.md E20. Space is Theta(n): the poison cells
    are O(log log n) arrays of at most {!Ge_poison.max_cells} cells,
    but the chain itself keeps 4 registers per level. *)

module Make : Le.S

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
