(** Baseline: tournament-tree leader election in the style of Afek,
    Gafni, Tromp and Vitányi (WDAG 1992).

    A complete binary tree of 2-process elections over [n] leaf slots
    (rounded up to a power of two); process [p] starts at leaf [p] and
    must win every election up to the root. O(log n) expected steps
    against the adaptive adversary — non-adaptive, since even a solo
    process climbs the full tree — and Theta(n) registers.

    The 2-process base case is pluggable: [Make_duel] takes any
    {!Primitives.Duel.S} (the unbounded {!Primitives.Le2}, the
    bounded-register {!Primitives.Le2_bounded}, or a new duel) and
    composes it up the tree. [Make] is the historical instantiation
    over [Le2] — byte-identical to the pre-[Duel.S] code. [elect] uses
    [M.self] as the leaf index; it must be below [n] rounded up to a
    power of two. *)

val leaves : n:int -> int
(** Leaf count for [n] slots: [n] rounded up to a power of two.
    Process [p] climbs from heap node [leaves + p] to the root. *)

module Make_duel (D : Primitives.Duel.S) : Le.S

module Make : Le.S

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
