(** Chaos stress harness for the real-multicore ([Atomic]/[Domain]) TAS
    implementations, watchdog-wrapped.

    Real domains cannot be crashed mid-operation, so the fault model is
    {e crash-before-invoke}: each participant independently fails to
    show up with the given probability (at least one always invokes),
    and the survivors' TAS calls race on true parallel domains with the
    OS scheduler as the adversary. A participant that never invoked can
    never have taken effect, so the safety check is strict: exactly one
    of the invokers must return 0. This exercises the
    solo-termination/wait-freedom side of the paper's fault model — the
    structure must elect a winner among whoever shows up. *)

type report = {
  impl : string;
  crash_prob : float;
  trials : int;
  participants : int;  (** Invoking participants, summed over trials. *)
  crashed_participants : int;
      (** Participants that crashed before invoking, summed. *)
  violations : int;
  timeouts : int;
  failure_seeds : int64 list;
  last_failure : Watchdog.reason option;
      (** Why the watchdog gave up on the last trial it gave up on;
          [None] when every trial returned in time. *)
  max_elapsed : float;
}

val impl_names : unit -> string list
(** The {!Primitives.Atomic_tas} constructions under test: a TAS over
    every {!Rtas.Registry} entry with an atomic backend ([make_mc]),
    plus the [Atomic.exchange]-based native reference. *)

val run_point :
  ?timeout:float ->
  ?retries:int ->
  impl:string ->
  k:int ->
  crash_prob:float ->
  trials:int ->
  seed:int64 ->
  unit ->
  report
(** [trials] trials of one implementation sized for [k] participants at
    one crash probability. Watchdog default timeout: 10s (domain spawn
    is slow relative to simulation). Raises [Invalid_argument] on an
    unknown implementation name. *)

val sweep :
  ?timeout:float ->
  ?retries:int ->
  ?impls:string list ->
  k:int ->
  probs:float list ->
  trials:int ->
  seed:int64 ->
  unit ->
  report list

val pp_report : report Fmt.t
(** Same column layout as {!Chaos.pp_report} (mode column reads [mc];
    the steps column reports mean invokers per trial). *)
