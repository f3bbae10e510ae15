(** Chaos runner: sweep crash probabilities across the registry's
    elections, checking every trial under the watchdog's per-trial
    timeout and seed-rotating retry, in one of three modes:

    - [Le] and [Tas] run the simulator with crashes injected
      mid-operation and check unique-winner and (for [Tas]) crash-aware
      linearizability;
    - [Mc] runs the election's [Atomic_mem] instance, wrapped in a TAS,
      on real domains. Real domains cannot be crashed mid-operation, so
      the fault model is {e crash-before-invoke}: each participant
      independently fails to show up with the given probability (at
      least one always invokes), and the survivors race with the OS
      scheduler as the adversary. A participant that never invoked can
      never have taken effect, so exactly one invoker must return 0.

    All randomness derives from the sweep seed, so every reported
    failure seed reproduces its trial's faults exactly (and, in the
    simulated modes, the whole trial). *)

type mode = Le | Tas | Mc

val pp_mode : mode Fmt.t

type report = {
  impl : string;  (** Algorithm name (see {!impl_names}). *)
  mode : mode;
  crash_prob : float;
  trials : int;
  crashes : int;
      (** Processes crashed ([Mc]: that never invoked), summed over all
          trials. *)
  violations : int;  (** Trials whose safety check failed. *)
  timeouts : int;  (** Trials abandoned by the watchdog. *)
  failure_seeds : int64 list;
      (** Seeds of violating trials and of every watchdog attempt that
          failed — the reproduction recipe. *)
  last_failure : Watchdog.reason option;
      (** Why the watchdog gave up on the last trial it gave up on — a
          timeout or a raise; [None] when every trial returned in time.
          Tells a livelock apart from a trial that crashed the harness. *)
  steps : int;
      (** Total shared-memory steps over the trials; in [Mc] mode, the
          invoking participants. *)
}

val impl_names : unit -> string list
(** Every name {!run_point} accepts in [Mc] mode: the
    {!Rtas.Registry.names}, then [native], the [Atomic.exchange]
    reference. The simulated modes take the registry names. *)

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
    probability, for up to [n] participants of which [k] contend.

    In the simulated modes each trial wraps a random-oblivious schedule
    in a {!Plan.Storm} of that probability (budget [n-1]) and applies
    the mode's safety check; [plan] overrides the default storm with an
    explicit fault plan (the [crash_prob] then only labels the report;
    the plan's own actions decide the faults). Trial [t] runs with
    [Sim.Rng.derive seed ~stream:t] on a pool of [domains] (default 1)
    domains via {!Engine.run}; the report, including [failure_seeds],
    is identical for every domain count.

    In [Mc] mode each trial builds a fresh TAS over the algorithm's
    [make_mc] at size [n] and spawns one domain per invoker, so trials
    run one at a time whatever [domains] says, with a timeout of at
    least 10 s; [plan] is ignored.

    Raises [Invalid_argument] before running any trial if [algorithm]
    is not a {!Rtas.Registry} name ([native] too, in [Mc] mode),
    unless [1 <= k <= n], or unless [0 <= crash_prob <= 1]. *)

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

val pp_table : report list Fmt.t
(** A header line, then one fixed-width row per report: impl, mode,
    prob, trials, crashes, timeouts, violations and mean steps per
    trial ([Mc]: mean invokers). The impl column is as wide as the
    widest name, and at least 14 characters. *)

val pp_totals : report list Fmt.t
(** The sums of the reports' [crashes], [timeouts], [trials] and
    [violations], one [chaos.<field> = <sum>] line each (timeouts as
    [livelock_timeouts]), in that name order; nothing for no reports. *)
