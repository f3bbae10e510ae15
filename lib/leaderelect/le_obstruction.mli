(** Deterministic {e obstruction-free} leader election — the progress
    class the Section 5 lower bound actually targets.

    Theorem 5.1 applies to every algorithm with {e nondeterministic
    solo-termination}, a condition strictly weaker than wait-freedom:
    a process must finish only when it runs alone. Deterministically
    this is obstruction-freedom, and unlike wait-free leader election it
    {e is} achievable without randomness. This module implements it:

    - {!duel2}: the {!Primitives.Le2} random-walk duel with the coin
      replaced by a deterministic [+1] advance. Safety is untouched (the
      duel's safety argument never uses randomness); a solo process
      climbs to the winning gap and terminates, while two processes in
      adversarial lockstep advance together forever — the livelock that
      obstruction-freedom permits and wait-freedom forbids.
    - {!create}/{!elect}: an n-process election given by an elimination
      path (deterministic splitters + deterministic duels), entirely
      deterministic and obstruction-free.

    Under any schedule that eventually lets one contender run alone the
    election terminates with a unique winner; under exact lockstep it
    runs forever. The test suite demonstrates both behaviours, and that
    the implementation's register count respects the Omega(log n) bound. *)

type duel

val duel2 : ?name:string -> Sim.Memory.t -> duel

val duel_elect : duel -> Sim.Ctx.t -> port:int -> bool

type t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool

val make : Sim.Memory.t -> n:int -> Le.t
