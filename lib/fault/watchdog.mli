(** Watchdog-wrapped trial execution: per-trial wall-clock timeout,
    bounded retry with deterministic seed rotation, failure-seed
    reporting.

    The chaos harness runs thousands of randomized trials, some across
    real domains where the OS scheduler is the adversary. A trial that
    raises or takes suspiciously long is retried a bounded number of
    times with rotated seeds; the seeds tried are reported on failure so
    any outcome can be reproduced.

    OCaml domains cannot be preempted, so the timeout is detect-and-
    report: a trial that overruns is recorded as [Timed_out] once it
    returns (in-simulator runs additionally get hard in-run preemption
    from [Sched.run]'s [max_total_steps] budget). All algorithms under
    test are wait-free, so a trial that never returns is itself a bug —
    of the harness or of a multicore implementation — and shows up as a
    hung process rather than being silently swallowed. *)

type reason = Timed_out of float | Raised of string

type failure = {
  attempts : int;  (** Attempts made (1 + retries used). *)
  seeds_tried : int64 list;  (** In attempt order; reproduce with these. *)
  last_reason : reason;
}

type 'a success = {
  value : 'a;
  seed_used : int64;  (** The seed of the successful attempt. *)
  attempt : int;  (** 0 for first-try success. *)
  elapsed : float;  (** Wall-clock seconds of the successful attempt. *)
}

val pp_reason : reason Fmt.t

val run :
  ?timeout:float ->
  ?retries:int ->
  seed:int64 ->
  (seed:int64 -> 'a) ->
  ('a success, failure) result
(** [run ~seed f] calls [f ~seed]; if it raises or exceeds [timeout]
    (default 5s) wall-clock, retries with deterministically rotated
    seeds up to [retries] (default 2) more times. Attempt 0 always uses
    the caller's [seed], so a clean first run is exactly reproducible. *)

(** {1 Monitored domain races}

    {!run} can only notice an overrun after the trial returns, which is
    no help against a genuinely stuck multi-domain run: a livelocked
    [Atomic_mem] race hangs [Domain.join] forever and takes [make
    check] down with it. {!race} closes that hole — it spawns the
    contending domains itself, polls per-domain completion flags, and
    after [timeout] gives up {e without joining}, returning a
    per-domain progress diagnosis instead of hanging. The stuck domains
    are leaked (OCaml domains cannot be cancelled); callers are
    expected to report and exit, which tears the process down. *)

type domain_progress = {
  dp_index : int;  (** Spawn index, [0 .. n-1]. *)
  dp_label : string;
  dp_finished : bool;  (** Had this domain completed at the timeout? *)
  dp_progress : int;
      (** Caller-supplied progress counter (e.g. attempts made) read at
          the timeout; 0 when no [progress] callback was given. *)
}

type stuck = {
  stuck_elapsed : float;  (** Seconds waited before giving up. *)
  stuck_progress : domain_progress list;  (** One entry per domain. *)
}

val pp_stuck : stuck Fmt.t
(** ["stuck after 10.00s: [1] domain 1 RUNNING (progress 42); ..."] —
    only unfinished domains are listed, finished ones are summarised. *)

val race :
  ?poll_s:float ->
  ?timeout:float ->
  ?progress:(int -> int) ->
  ?label:(int -> string) ->
  n:int ->
  (int -> 'a) ->
  ('a array, stuck) result
(** [race ~n f] spawns [n] domains evaluating [f 0 .. f (n-1)] and
    waits for all of them, polling every [poll_s] (default 2ms) seconds
    up to [timeout] (default 10s) wall-clock. On completion returns the
    results in spawn order (joining the — now finished — domains); if
    any [f i] raised, the first exception in spawn order is re-raised
    after all domains finish. On timeout returns the diagnosis and
    leaks the unfinished domains. *)
