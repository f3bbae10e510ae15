(** Adaptive leader election with O(log log k) expected steps against the
    R/W-oblivious adversary (Theorem 2.4), from O(n) registers.

    A ladder of Section 2.1 chains ("rungs") of doubly-exponentially
    increasing capacities [n_i = 2^(2^(2^i))] (the last rung has capacity
    [n]). Rung [i] uses sifting GroupElects with write probabilities
    tuned for contention [n_i] and only [Theta(log log n_i) = Theta(2^i)]
    levels; a process that exhausts a rung without winning or losing a
    splitter escalates to the next rung. The last rung has [n] levels
    (sifting levels followed by dummies) and cannot be exhausted. Rung
    winners are reconciled by a chain of 2-process elections indexed by
    rung.

    A process with contention [k] settles in the first rung with
    [n_i >= k] after [sum of Theta(2^j) for n_j < k] = O(log log k)
    steps, where the sifting probabilities are small enough to thin the
    crowd; hence adaptivity. *)

val rung_capacities : n:int -> int array

module Make : Le.S

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
