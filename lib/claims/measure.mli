(** The one measurement loop behind the step and RMR tables: run an
    election per trial and average its cost. [rtas sweep] and the claim
    tables share it. *)

type sample = {
  steps : float;  (** Mean over trials of the max steps of a process. *)
  rmrs : float;  (** Mean over trials of the max RMRs of a process. *)
  registers : int;  (** Registers the algorithm allocated (trial 0). *)
}

val oblivious : int64 -> Sim.Sched.adversary
(** The random-oblivious schedule on stream 1 of a trial seed. *)

val elections :
  ?domains:int ->
  ?adversary:(int64 -> Sim.Sched.adversary) ->
  trials:int ->
  seed:int64 ->
  algorithm:string ->
  n:int ->
  k:int ->
  unit ->
  sample
(** [elections ~trials ~seed ~algorithm ~n ~k ()] runs [trials]
    elections of [k] participants over the {!Engine}. Trial [t] has
    seed [s = Sim.Rng.derive seed ~stream:t]; its schedule runs on
    [Sim.Rng.derive s ~stream:0] under [adversary s] (default
    {!oblivious}). Each worker builds the election once and resets it
    per trial ({!Engine.run_local}), which gives the same sample as a
    fresh system per trial through [Rtas.Election.run]. The sample is
    identical for every [domains]. Raises [Invalid_argument] on an
    unknown algorithm, unless [1 <= k <= n], or if [trials < 1]. *)
