(** The simulator-backend lock service: an open-loop workload driven as
    a discrete-event simulation over {!Resettable} keys.

    Clients arrive on a Poisson or bursty schedule ({!Arrival}), pick a
    key Zipfian-ly ({!Zipf}), and queue on it. Whenever a key is [Open]
    with a fresh one-shot instance and has eligible waiters, the driver
    runs one election {e round} among them and advances virtual time by
    its span. The round runs on its event loop's arena (one flat machine
    or effect-simulator structure per loop, shared by all its keys and
    reset as each round starts) under a derived-seed random-oblivious
    schedule (plus an optional {!Fault.Plan}), cut off after 1,000,000
    steps. The winner claims the
    round; losers retry after a {!Backoff} delay; clients whose age
    exceeds the deadline resolve as deadline-exceeded; arrivals that find
    the key's queue full are shed.

    Chaos ([crash_prob]): each round's winner crashes with that
    probability {e after} claiming and never releases — the key recovers
    only through {!Resettable.Make.force_expire} when the lease (equal
    to the deadline) runs out, exercising the round-stamp recovery path
    end to end. Mid-election contender crashes come from [plan].

    The whole run is a pure function of the config: virtual time, a
    deterministic event engine, and {!Sim.Rng.derive}-split streams make
    the report (and its JSON) bit-identical across repeats and machines.
    Three axes of the execution strategy are report-invariant, each
    pinned by a differential test:

    - [events]: the {!Wheel} timing-wheel engine (O(1), allocation-free
      in steady state) versus the binary-heap oracle. Both order events
      by (time, key, per-key sequence).
    - [shards]: the keyspace is partitioned [key mod shards]; every
      per-key stream (round seeds, chaos draws, event sequence) is
      derived from (seed, key), and keys never interact, so per-loop
      partial reports merge associatively into the single-shard report
      byte for byte. The shards run on [min domains shards] event
      loops (see {!run}).
    - [kernel]: flat machines versus effect scheduler.

    Every claimed round has a lease (the deadline), and a round with no
    winner waits for one. A lease is queued only when it can fire: its
    holder crashed, or the clean release does not come before it ([hold
    >= deadline]; on the same instant the lease fires first). Behind a
    clean release it would find the round moved on, so it is never
    queued, but its per-key sequence number is still taken at claim
    time, and every other event keeps its place in the order.

    All times are in ticks. One election round occupies the key for the
    election's simulated span (its {!Sim.Sched.time}), then [hold] more
    ticks before release. *)

type config = {
  algorithm : string;  (** A {!Rtas.Registry} entry name. *)
  clients : int;  (** Total arrivals to generate. *)
  keys : int;
  zipf_s : float;  (** Key-choice skew; [0.] is uniform. *)
  arrival : Arrival.kind;
  backoff : Backoff.t;
  deadline : float;  (** Per-client age limit, and the round lease. *)
  hold : float;  (** Ticks a winner holds the key after its round. *)
  max_waiters : int;  (** Per-key queue capacity; beyond it, shed. *)
  on_shed : [ `Drop | `Retry ];
      (** What a full queue does to a joining client. [`Drop] (the
          default) rejects it terminally — [counts.shed] partitions the
          client population together with completions, deadlines and
          crashes. [`Retry] models a client-side SDK retry loop: the
          rejection is counted in [counts.shed] but the client re-enters
          backoff (its attempt counter advances, so [Exp] delays keep
          escalating) and bounces until it completes or its deadline
          expires; [counts.shed] then counts rejection {e events} and
          only completed/deadline/crashed partition the population.
          Under sustained overload this multiplies cheap timer events
          per client — the regime the event-engine benchmark gates. *)
  contenders : int;
      (** Election width [n]: instances are built with this many slots
          and a round admits at most this many contenders. *)
  crash_prob : float;  (** Per-round holder-crash probability. *)
  plan : Fault.Plan.t option;  (** Mid-election crash/delay storms. *)
  kernel : [ `Effect | `Flat ];
      (** Election kernel. [`Flat] runs rounds on the registry's
          preallocated {!Flatsim.Machine} compilation: same seeds,
          schedules, winners and spans as [`Effect], but a round
          allocates nothing. It needs a flat-registered algorithm and no
          [plan]; {!run} raises [Invalid_argument] otherwise. *)
  events : [ `Heap | `Wheel ];
      (** Event engine: the timing wheel (default) or the heap oracle. *)
  shards : int;
      (** Keyspace partitions (default 1); report-invariant, run on up
          to {!run}'s [~domains] event loops in parallel. *)
  latency : [ `Auto | `Exact | `Hist ];
      (** Latency recording: exact per-sample percentiles, or the
          bounded-memory log-bucketed histogram (percentiles within
          ~1.6% relative; mean and max stay exact). [`Auto] picks
          [`Exact] up to 65536 clients and [`Hist] beyond — million-
          client runs never hold a per-client latency array. *)
  seed : int64;
}

val default : algorithm:string -> config
(** Moderate-contention defaults: 1000 clients, 16 keys, zipf 0.9,
    Poisson rate 0.02/tick, capped-exponential backoff, deadline 20k
    ticks, no chaos, seed 1. *)

val validate : config -> unit
(** Raises [Invalid_argument], naming the field, on out-of-range fields
    and on NaN or infinite floats. *)

val latency_mode : config -> [ `Exact | `Log ]
(** The {!Tally} mode [latency] selects; both drivers record in it. *)

val report :
  config ->
  backend:string ->
  workers:int ->
  duration:float ->
  livelocked:bool ->
  diagnosis:string option ->
  Tally.t ->
  Report.t
(** The run's report from its config and merged tally: both drivers
    build theirs here. [duration] is the run length in ticks (at least
    1 in the report). Unless [livelocked], asserts that the counts
    partition the clients. *)

val run : ?telemetry:Telemetry.sink -> ?domains:int -> config -> Report.t
(** Run the workload to completion (the event engine drains — open-loop
    arrivals are finite). [~domains] (default 1) caps the number of
    event loops; it never affects the report. Raises [Invalid_argument]
    if [domains < 1].

    The run has [min domains shards] event loops, one per worker
    domain; loop [w] owns the keys of the shards [s = w (mod loops)].
    Each loop has one queue, one slot pool, one election arena and one
    {!Tally}. With one domain, every shard count runs the one loop a
    1-shard run has.

    Arrivals are streamed: each loop draws the {!Clients} stream once,
    skips the clients of keys it does not own, and merges the stream
    with its queue. Each step handles the next arrival when it sorts
    before the queue's head and pops the queue otherwise, so an arrival
    enters the queue only when the next one ties it in time (the queue
    then takes the run in key order), and the event pool follows the
    timers in flight, not [clients]. Under [`Drop] an arrival that
    finds its key's queue full is shed before it takes a slot.
    Per-client state (arrival, attempts, round stamp, wait-queue link)
    lives in a slot taken at the arrival and given back when the client
    resolves, from the loop's pool of fixed-size chunks, so it too
    follows the clients in flight. Each arrival's per-key sequence
    number is its rank among its key's arrivals (below 2^30), and every
    other event of the key numbers on from 2^30, which keeps the
    (time, key, kseq) order of a queue holding every arrival and every
    lease from the start. The wheel queue is [Wheel.create ()] with no
    capacity: its chunk pool grows one chunk at a time and follows the
    events in flight, so under overload with retry on shed, when most
    clients of a loop are in flight at once, it grows to hold them, and
    so does the slot pool.

    With [telemetry], each loop's {!Tally} records the windowed
    {!Telemetry.recorder} schema (windows in virtual ticks), the wheel
    adds the loop lag of each queue pop and occupancy / pool / live-slot
    gauges at the window crossings of queue pops, and the sink receives
    the cross-loop merge. The
    gauges are per-loop values: on one domain the whole export equals
    the 1-shard run's, and on several it depends on the loop count. A
    sink with [trace] set (only with [shards = 1]) also receives a
    Perfetto trace: per-key round spans plus counter tracks for every
    series. The report is byte-identical with or without a sink. *)
