(** Declarative fault plans.

    A fault plan is a description of the failures an execution should
    suffer — targeted crashes, probabilistic crash storms, stall
    windows, a global halt — that {!apply} compiles onto any base
    {!Sim.Sched.adversary}. It is the one way to inject crashes into a
    simulated run: targeted crashes after a step count, probabilistic
    storms and the rest are each one [action] here, and any list of
    them compiles onto any base adversary.

    The compiled wrapper allocates nothing per decision: while a stall
    window hides a runnable process, the base adversary decides over a
    running set the wrapper refills in place.

    Fault model: the paper's algorithms are wait-free / solo-
    terminating, so correctness must survive up to [n-1] crash faults at
    arbitrary points. Storms therefore default to a budget of [n-1]
    (never crashing the last runnable process); targeted crashes are
    under the test author's control and may kill everyone. *)

type action =
  | Crash_after of { pid : int; steps : int }
      (** Crash [pid] once it has taken [steps] shared-memory steps. *)
  | Crash_at of { pid : int; time : int }
      (** Crash [pid] at the first decision at or after global time
          [time]. *)
  | Storm of { prob : float; max_crashes : int option }
      (** Before each decision, crash a uniformly chosen runnable
          process with probability [prob]: one {!Sim.Rng.below} draw,
          then one {!Sim.Rng.int} draw for the victim, from the plan's
          generator. Never crashes the last runnable process; injects
          at most [max_crashes] crashes
          (default: one fewer than the processes runnable at the
          storm's first decision — the paper's [n-1] fault model). *)
  | Stall of { pid : int; from_time : int; until_time : int }
      (** Hide [pid] from the base adversary while the global time is
          in [[from_time, until_time)]. Best-effort: if every runnable
          process is stalled the window is ignored (a stall is a delay,
          never a deadlock). *)
  | Halt_at of { time : int }
      (** Crash every running process at the first decision at or
          after global time [time]. *)

type t = action list

val crash_after : pid:int -> steps:int -> action
val crash_at : pid:int -> time:int -> action
val storm : ?max_crashes:int -> float -> action
(** Raises [Invalid_argument] unless the probability is in [0, 1]. *)

val stall : pid:int -> from_time:int -> until_time:int -> action
val halt_at : int -> action

val apply : ?seed:int64 -> t -> Sim.Sched.adversary -> Sim.Sched.adversary
(** Compile the plan onto a base adversary. Decision order per step:
    a due [Halt_at] halts; else a due targeted crash fires (in plan
    order); else each [Storm] draws (using a dedicated RNG seeded with
    [seed], so fault timing is reproducible and independent of the base
    adversary's randomness); else the base adversary decides, seeing a
    view with stalled processes filtered out of [runnable]. The wrapper
    keeps the base adversary's class. *)

val pp : t Fmt.t

val to_string : t -> string
(** Compact round-trippable syntax, e.g.
    ["crash:2@5,storm:0.02@3,stall:0@10-40,halt@200"]. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} syntax: comma-separated actions of the forms
    [crash:<pid>@<steps>], [crashat:<pid>@<time>],
    [storm:<prob>], [storm:<prob>@<max_crashes>],
    [stall:<pid>@<from>-<until>], [halt@<time>]. Every integer must be
    [>= 0] and a storm probability in [0, 1]; anything else, NaN
    included, is an [Error]. *)
