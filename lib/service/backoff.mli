(** Retry backoff policies for losing lock-service clients.

    - [Immediate]: retry one tick later (the minimum forward step — a
      true zero-delay retry against a still-held key is a busy loop).
    - [Exp]: capped exponential backoff with {e deterministic} jitter:
      attempt [a] waits uniformly in [\[raw/2, raw)] where
      [raw = min cap (base * 2^(a-1))], the uniform draw coming from a
      splitmix stream minted with {!Sim.Rng.derive} from
      [(seed, client, attempt)]. Same inputs, same delay — reproducible
      workloads with decorrelated clients.
    - [Rand]: uniform in [\[1, max)], the classic randomized backoff.

    Delays are in ticks (see {!Arrival}). *)

type t =
  | Immediate
  | Exp of { base : float; cap : float }
  | Rand of { max : float }

val describe : t -> string

val max_delay : float
(** [2^47] ticks: every [cap] and [max] stays below it, and so do the
    driver's deadline and hold. *)

val validate : t -> unit
(** Raises [Invalid_argument], naming the parameter, on nonsense
    parameters, NaN and infinities included, and on a [cap] or [max] of
    2^47 ticks or more: half the driver's {!Wheel.horizon}, so that a
    delay after a round's span stays within it. *)

val delay : t -> seed:int64 -> client:int -> attempt:int -> float
(** Delay before retry number [attempt] (1-based; values below 1 are
    clamped to 1) of [client]. Always >= 1 tick. *)
