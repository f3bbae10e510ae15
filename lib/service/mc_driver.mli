(** The real-domain lock service: the same open-loop workload as
    {!Driver} run against {!Backend.Atomic_mem} elections, with worker
    domains racing genuine [Atomic.t] CASes and a {!Fault.Watchdog}
    bounding the run's wall clock.

    One tick is one microsecond: deadlines, holds and backoff delays
    become [Unix.sleepf] intervals, latencies and throughput come from
    [Unix.gettimeofday], and the report shares the sim driver's schema
    and units. Every worker draws the sim driver's {!Clients} stream
    and serves every [workers]-th client of it, so both backends face
    the same offered load for a given seed; wall-clock interleaving
    makes the outcomes nondeterministic.

    Clients are sharded round-robin over [workers] domains. A worker's
    slot in every one-shot instance is its own index ([n = workers]),
    and a per-worker, per-key round stamp enforces the at-most-once
    rule; winners {!Resettable.Make.claim} their round, losers retry
    under the backoff policy until the deadline.

    Chaos ([crash_prob]): a winner crashes before claiming with
    probability [p/2] (wedging the round [Open]) or after claiming with
    probability [p/2] (wedging it [Held]); in both cases the key
    recovers only when another worker notices the lease (equal to the
    deadline) has run out and fires {!Resettable.Make.force_expire} —
    the crashed holder cannot wedge the key.

    If the watchdog gives up, unfinished worker domains are leaked; the
    report counts only the finished workers' tallies and carries
    [livelocked = true] plus a per-worker progress diagnosis, and the
    caller should exit nonzero. *)

type config = {
  algorithm : string;  (** A {!Rtas.Registry} entry. *)
  clients : int;
  keys : int;
  zipf_s : float;
  arrival : Arrival.kind;
  backoff : Backoff.t;
  deadline : float;  (** Ticks (µs); also the recovery lease. *)
  hold : float;
  crash_prob : float;
  workers : int;  (** Domains; also the election width [n]. *)
  timeout : float;  (** Watchdog bound, wall-clock seconds. *)
  seed : int64;
}

val default : algorithm:string -> config

val validate : config -> unit
(** Raises [Invalid_argument], naming the field, on out-of-range fields
    and on NaN or infinite floats. *)

val run : ?telemetry:Telemetry.sink -> config -> Report.t
(** Run the workload on the entry's [Atomic_mem] instance ([make_mc]).
    Raises [Invalid_argument] on an unknown algorithm name.

    When [telemetry] is given, each worker domain records the shared
    {!Telemetry.recorder} schema with windows in wall-clock
    microseconds (the backend's tick), and the sink receives the merged
    per-worker snapshots after the watchdog joins. The sink's [trace]
    flag is ignored here — there is no virtual clock to span. *)
