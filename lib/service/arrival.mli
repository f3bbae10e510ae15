(** Open-loop client arrival processes.

    A closed-loop harness waits for one request to finish before
    issuing the next, so the system under test throttles its own load;
    an {e open-loop} workload keeps arriving on its own clock, which is
    what exposes queueing delay and tail latency. Two processes are
    provided:

    - [Poisson rate]: independent exponential inter-arrival gaps —
      memoryless background traffic.
    - [Bursty]: a Poisson process modulated by an on/off cycle: during
      each [burst_len] window the rate is multiplied by [boost], then
      an [idle_len] window runs at the base rate. Sampling is the exact
      piecewise-exponential construction, not thinning.

    Times are in abstract ticks (the simulator's virtual step unit; the
    atomic driver maps one tick to a microsecond). All randomness comes
    from the {!Sim.Rng} stream handed to {!create}. *)

type kind =
  | Poisson of { rate : float }  (** [rate] arrivals per tick. *)
  | Bursty of { rate : float; burst_len : float; idle_len : float; boost : float }

val kind_name : kind -> string

val describe : kind -> string
(** Round-trippable parameter summary for reports. *)

val validate : kind -> unit
(** Raises [Invalid_argument], naming the parameter, on nonsense
    parameters, NaN and infinities included. *)

type t
(** A stateful arrival stream. *)

val create : kind -> Sim.Rng.t -> t
(** Validates, then wraps the RNG; the stream starts at time 0. *)

val next : t -> float
(** Absolute time of the next arrival; strictly increasing. *)
