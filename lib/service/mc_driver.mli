(** The real-domain lock service: the same open-loop workload as
    {!Driver} run against {!Backend.Atomic_mem} elections, with worker
    domains racing genuine [Atomic.t] CASes and a {!Fault.Watchdog}
    bounding the run's wall clock.

    One tick is one microsecond: deadlines, holds and backoff delays
    become [Unix.sleepf] intervals, latencies and throughput come from
    [Unix.gettimeofday], and the report shares the sim driver's schema
    and units. Every worker draws the sim driver's {!Clients} stream
    and serves every [domains]-th client of it, so both backends face
    the same offered load for a given seed; wall-clock interleaving
    makes the outcomes nondeterministic.

    Clients are sharded round-robin over the worker domains. A
    worker's slot in every one-shot instance is its own index ([n] =
    the worker count), and a per-worker, per-key round stamp enforces
    the at-most-once rule; winners {!Resettable.Make.claim} their
    round, losers retry under the backoff policy until the deadline.

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

val run :
  ?telemetry:Telemetry.sink ->
  ?domains:int ->
  ?timeout:float ->
  Driver.config ->
  Report.t
(** Run the workload on the entry's [Atomic_mem] instance ([make_mc])
    with [domains] worker domains (default 4; also the election width)
    under a watchdog bound of [timeout] wall-clock seconds (default
    30). Latencies record in {!Driver.latency_mode}, and the report
    comes from {!Driver.report}.

    Before any worker starts, raises [Invalid_argument] naming the
    field if {!Driver.validate} rejects the config, if [domains < 1],
    if [timeout] is not finite and > 0, on an unknown algorithm name,
    and for every sim-only field set away from {!Driver.default}:
    [plan], [kernel], [events], [shards], [on_shed], [max_waiters] and
    [contenders]. A sink with [trace] set raises the same way: there is
    no virtual clock to span.

    When [telemetry] is given, each worker domain records the shared
    {!Telemetry.recorder} schema with windows in wall-clock
    microseconds (the backend's tick), and the sink receives the merged
    per-worker snapshots after the watchdog joins. *)
