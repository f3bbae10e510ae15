(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows through a value of
    type {!t}, so a simulation is fully reproducible from its seed. The
    effect scheduler, the adversaries and the flat kernel
    ([Flatsim.Machine]) all draw from this one stream.

    The state is the seed plus a native-int draw counter (splitmix's
    state after [i] draws is [seed + i * golden_gamma]), so no draw
    stores an [int64]: {!int}, {!bool}, {!below} and {!geometric_capped}
    allocate nothing; {!float} and {!next} allocate only their boxed
    result. *)

type t = { mutable base : int64; mutable idx : int }
(** The seed and the draws taken, exposed so {!Adversary.random_from}
    can mix a draw ahead. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds give
    independent-looking streams. *)

val copy : t -> t
(** [copy t] is a generator with the same state as [t]; advancing one
    does not affect the other. *)

val reseed : t -> int64 -> unit
(** [reseed t seed] resets [t] in place to the state of [create seed],
    without allocating. The reuse path of batch trials ({!Sched.reset})
    depends on [reseed t s] making [t] indistinguishable from a fresh
    generator, so reseeded and freshly created runs stay bit-identical. *)

val derive : int64 -> stream:int -> int64
(** [derive seed ~stream] deterministically mints the seed of an
    independent sub-stream: the same [(seed, stream)] pair always yields
    the same sub-seed, distinct [stream] values yield distinct sub-seeds
    (injective for a fixed [seed]), and the splitmix finalizer decouples
    nearby inputs. This is the repo-wide replacement for ad-hoc
    [seed * 7]-style sub-seed arithmetic: use stream 0, 1, 2, ... for
    the scheduler, the adversary, fault injection, and so on, and
    [derive seed ~stream:trial] for per-trial seeds in a batch. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val below : t -> float -> bool
(** [below t p] is [float t < p], one draw, without boxing the float:
    the allocation-free Bernoulli trial. *)

val float_of_seed : int64 -> float
(** [float_of_seed seed] is exactly [float (create seed)] without
    allocating the generator: the one-shot uniform draw for callers
    that mint a fresh stream per draw (e.g. per-retry backoff jitter
    on the service driver's zero-allocation event path). *)

val jitter_of_seed : int64 -> client:int -> attempt:int -> float
(** [jitter_of_seed seed ~client ~attempt] is exactly
    [float_of_seed (derive (derive seed ~stream:client)
    ~stream:attempt)], fused so the two intermediate sub-seeds are
    never boxed. This is the per-retry jitter draw of the service
    backoff policies: one cross-module call, zero allocations. *)

val geometric_capped : t -> int -> int
(** [geometric_capped t l] samples the distribution of line 3 of the
    paper's Figure 1: [Pr(x = i) = 1/2^i] for [1 <= i < l] and
    [Pr(x = l) = 1/2^(l-1)]. [l] must be at least 1. *)
