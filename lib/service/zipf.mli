(** Zipfian key-popularity sampler.

    The lock-service workload contends on a keyspace whose popularity
    follows a Zipf distribution with skew [s]: key [i] (0-based) is
    drawn with probability proportional to [1/(i+1)^s]. [s = 0] is the
    uniform distribution; [s ~ 1] is the classic web/cache skew where a
    handful of hot keys absorb most of the traffic — the shape that
    makes tail latency interesting.

    The sampler precomputes both the normalised CDF and a Vose alias
    table once ([O(n)]). Draws go through the alias table: O(1) — one
    uniform, one compare — and allocation-free, with all randomness
    flowing through {!Sim.Rng} so workloads are reproducible from their
    seed. Both samplers consume exactly one [Rng.float] per draw, so
    they are stream-compatible; {!sample_cdf} (the old binary-search
    path) is kept as the distribution oracle the tests compare
    against. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] prepares a sampler over keys [0 .. n-1] with skew
    [s]. Raises [Invalid_argument] when [n < 1], or when [s] is negative,
    NaN or infinite. *)

val size : t -> int

val sample : t -> Sim.Rng.t -> int
(** A key in [0 .. n-1], Zipf-distributed: O(1) alias-table draw. *)

val sample_cdf : t -> Sim.Rng.t -> int
(** CDF binary-search oracle: same distribution and same per-draw
    stream consumption as {!sample} (for [s = 0] with a power-of-two
    [n], the very same key per draw). O(log n). *)

val pmf : t -> int -> float
(** Exact probability of a key, for tests. *)
