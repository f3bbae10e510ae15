(** Library of scheduling adversaries.

    An adversary strategy is a {!Sched.adversary}: a class (which fixes
    what it may observe) plus a decision function. The strategies here
    are the generic ones used across experiments; algorithm-specific
    attack adversaries (e.g. the adaptive attack on the log* algorithm)
    live next to the experiments that use them. Crashes are injected by
    compiling a [Fault.Plan] onto any of these (lib/fault). *)

val round_robin : unit -> Sched.adversary
(** Oblivious. Fixed cyclic schedule [0, 1, ..., n-1, 0, ...]; entries
    for processes that already finished are skipped at no cost. *)

val random_oblivious : seed:int64 -> Sched.adversary
(** Oblivious. A uniformly random process id per slot, committed in
    advance (the stream depends only on the seed); slots belonging to
    finished processes are skipped at no cost. *)

val random_from : Rng.t -> Sched.adversary
(** [random_from (Rng.create seed)] is [random_oblivious ~seed]: a
    caller that {!Rng.reseed}s [rng] (its only drawer) before each
    schedule reuses one adversary. *)

val fixed_schedule : ?then_halt:bool -> int array -> Sched.adversary
(** Oblivious. Follows the given pid sequence, skipping entries for
    processes that are no longer running. When the sequence is
    exhausted: halts (crashing the rest) if [then_halt] (default), else
    continues round-robin. *)

val adaptive : string -> (Sched.view -> int) -> Sched.adversary
(** Fully adaptive custom strategy. *)

val location_oblivious : string -> (Sched.view -> int) -> Sched.adversary
