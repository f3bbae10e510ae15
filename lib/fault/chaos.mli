(** Chaos runner for the simulated algorithms: sweep crash probabilities
    across LE/TAS implementations, checking unique-winner and (for TAS)
    crash-aware linearizability on every trial, under the watchdog's
    per-trial timeout and seed-rotating retry.

    All randomness derives from the sweep seed, so every reported
    failure seed reproduces its trial exactly. *)

type mode = Le | Tas

val pp_mode : mode Fmt.t

type report = {
  impl : string;  (** Algorithm name (see {!Rtas.Registry.names}). *)
  mode : mode;
  crash_prob : float;
  trials : int;
  crashes : int;  (** Processes crashed, summed over all trials. *)
  violations : int;  (** Trials whose safety check failed. *)
  timeouts : int;  (** Trials abandoned by the watchdog. *)
  failure_seeds : int64 list;
      (** Seeds of violating trials and of every watchdog attempt that
          failed — the reproduction recipe. *)
  last_failure : Watchdog.reason option;
      (** Why the watchdog gave up on the last trial it gave up on — a
          timeout or a raise; [None] when every trial returned in time.
          Tells a livelock apart from a trial that crashed the harness. *)
  max_elapsed : float;  (** Slowest successful trial, seconds. *)
  mean_steps : float;  (** Mean total shared-memory steps per trial. *)
}

val check_tas_outcome : Sim.Sched.t -> string option
(** [None] iff the execution is safe: at most one 0-return, a winner
    whenever every process finished, and the history (with unfinished
    processes' pending calls) is crash-aware linearizable. *)

val check_le_outcome : Sim.Sched.t -> string option
(** [None] iff at most one process was elected, and exactly one
    whenever every process finished. *)

val run_point :
  ?timeout:float ->
  ?retries:int ->
  ?domains:int ->
  ?plan:Plan.t ->
  mode:mode ->
  algorithm:string ->
  n:int ->
  k:int ->
  crash_prob:float ->
  trials:int ->
  seed:int64 ->
  unit ->
  report
(** Run [trials] chaos trials of one algorithm at one crash
    probability: each trial wraps a random-oblivious schedule in a
    {!Plan.Storm} of that probability (budget [n-1]) and applies the
    mode's safety check. [plan] overrides the default storm with an
    explicit fault plan (the [crash_prob] then only labels the report;
    the plan's own actions decide the faults). Trial [t] runs with
    [Sim.Rng.derive seed ~stream:t] on a pool of [domains] (default 1)
    domains via {!Engine.run}; the report, including [failure_seeds],
    is identical for every domain count.

    Raises [Invalid_argument] before running any trial if [algorithm]
    is not a {!Rtas.Registry} name, or unless [1 <= k <= n]. *)

val sweep :
  ?timeout:float ->
  ?retries:int ->
  ?domains:int ->
  ?plan:Plan.t ->
  ?mode:mode ->
  algorithms:string list ->
  n:int ->
  k:int ->
  probs:float list ->
  trials:int ->
  seed:int64 ->
  unit ->
  report list
(** The full sweep: one {!run_point} per algorithm per crash
    probability, in order. Default mode: [Tas]. *)

val pp_report : report Fmt.t
(** One fixed-width table row: impl, mode, prob, trials, crashes,
    timeouts, violations, mean steps. *)

val pp_totals : report list Fmt.t
(** The sums of the reports' [crashes], [timeouts], [trials] and
    [violations], one [chaos.<field> = <sum>] line each (timeouts as
    [livelock_timeouts]), in that name order; nothing for no reports. *)
