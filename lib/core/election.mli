(** One-call driver for running a leader election or a TAS in the
    simulator: the front door of the library.

    {[
      let outcome =
        Rtas.Election.run ~algorithm:"log*" ~n:64 ~k:16
          ~adversary:(Sim.Adversary.random_oblivious ~seed:7L) ()
      in
      Fmt.pr "winner: %a@." Fmt.(option int) outcome.winner
    ]} *)

type outcome = {
  winner : int option;  (** Pid of the unique winner, if any. *)
  max_steps : int;
  max_rmrs : int;  (** Cache-coherent remote memory references. *)
  total_steps : int;
  registers : int;  (** Registers the algorithm allocated. *)
  results : int option array;
  sched : Sim.Sched.t;  (** For further inspection. *)
}

val lookup : string -> n:int -> k:int -> Registry.entry
(** [lookup algorithm ~n ~k] is the registry entry {!run} uses. Raises
    [Invalid_argument] on an unknown algorithm name, or unless
    [1 <= k <= n]. *)

val run :
  ?seed:int64 ->
  ?record_trace:bool ->
  ?adversary:Sim.Sched.adversary ->
  algorithm:string ->
  n:int ->
  k:int ->
  unit ->
  outcome
(** Runs [k] participants of the named algorithm (see {!Registry.names})
    dimensioned for [n] processes. Default adversary: round-robin.
    [record_trace] (default [false]) keeps the event log that
    [Sim.Sched.trace outcome.sched] returns.
    Raises [Invalid_argument] on an unknown algorithm name, or unless
    [1 <= k <= n]. *)

val run_tas :
  ?seed:int64 ->
  ?record_trace:bool ->
  ?adversary:Sim.Sched.adversary ->
  algorithm:string ->
  n:int ->
  k:int ->
  unit ->
  outcome
(** Same, but wraps the election in the TAS construction; [results] are
    TAS return values and [winner] is the unique 0-returner. *)

val pp_outcome : outcome Fmt.t
