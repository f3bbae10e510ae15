(** Simulation scheduler.

    A schedule is driven by an {e adversary}: at every step the adversary
    picks which process performs its pending shared-memory operation, or
    crashes a process, or halts the execution (crashing every process
    still running). The adversary observes pending operations through a
    view filtered according to its class:

    - {e adaptive}: sees everything — operation type, target register and
      value to be written — and all coin flips already made;
    - {e location-oblivious}: sees the operation type and pending write
      values, but not the target register;
    - {e R/W-oblivious}: sees the target register, but not whether the
      operation is a read or a write;
    - {e oblivious}: sees nothing; its decisions are a fixed function of
      time (the schedule is determined before the execution starts).

    Information hiding is enforced by construction: pending operations
    are read only through the [seen_*] accessors, which return the
    sentinel for every part the class hides. Nothing is allocated per
    step: the runner ({!run}, [Flatsim.Machine.run]) refreshes one
    {!view} in place, the accessors return ints (and the register's
    name), and a decision is an immediate int. *)

type klass = Adaptive | Location_oblivious | Rw_oblivious | Oblivious

val pp_klass : klass Fmt.t

type status = Running | Finished of int | Crashed

type adversary = {
  adv_name : string;
  adv_klass : klass;
  decide : view -> int;
      (** A pid [>= 0] to step, [crash_proc pid], or {!halt}. *)
}

and view = {
  mutable view_time : int;  (** Shared-memory steps taken so far. *)
  mutable runnable : Running.t;
      (** The pids of processes that can be scheduled, ascending: the
          runner's live running set, valid only during [decide] (the
          runner shrinks it in place), so an adversary that keeps pids
          must copy them out. A wrapper may point it at a set of its
          own for a nested [decide], and must point it back. *)
  view_src : source;
}

and source
(** The pending operations and the class that filters them: abstract,
    so only the accessors below read them. *)

val halt : int
(** The decision to crash every running process, lowest pid first. *)

val crash_proc : int -> int
(** The decision to crash a pid: an int below {!halt}. Its own inverse:
    [crash_proc d] is the pid a crash decision [d] crashes. *)

(** {1 What an adversary sees}

    A pid's pending operation as the view's class sees it; a part the
    class hides reads as the sentinel. *)

val hidden : int
(** [min_int]. *)

val hidden_name : string
(** [""]. *)

val kind_read : int
val kind_write : int

val seen_kind : view -> int -> int
(** Hidden from R/W-oblivious and oblivious adversaries. *)

val seen_reg : view -> int -> int
(** The register's allocation id; hidden from location-oblivious and
    oblivious adversaries. *)

val seen_reg_name : view -> int -> string
(** The register's name, hidden as {!seen_reg}. *)

val seen_value : view -> int -> int
(** A pending write's value, hidden as {!seen_kind}. *)

val seen_steps : view -> int -> int
(** Shared-memory steps taken; every class sees them. *)

val oblivious_view : steps:int array -> Running.t -> view
(** An oblivious view over step counts alone ([steps.(pid)]), as
    [Flatsim.Machine] keeps. *)

type t

val create :
  ?seed:int64 ->
  ?record_trace:bool ->
  ?flip_oracle:(pid:int -> bound:int -> int option) ->
  (Ctx.t -> int) array ->
  t
(** [create programs] sets up one process per program and runs each until
    it is poised at its first shared-memory operation (local computation,
    including coin flips, is free). Process [i] gets pid [i].

    [record_trace] (default [false]) logs every event for {!trace}, by a
    recorder sink that sees each event just before the ambient
    [Obs.Probe] sink. [flip_oracle] overrides coin flips, for model
    checking: it receives the flipping process and the bound ([-l]
    encodes the geometric draw of {!Ctx.flip_geometric} with parameter
    [l]); [None] falls back to the scheduler's RNG.

    The ambient [Obs.Probe] sink is captured here (and re-read at each
    {!reset}), so install a sink {e before} building the system under
    observation; with none, every probe point is a single field test
    and the run is bit-identical to an uninstrumented one. *)

val reset : ?seed:int64 -> t -> (Ctx.t -> int) array -> unit
(** [reset ~seed t programs] restores [t] to the state
    [create ~seed programs] would produce — every process poised at its
    first operation, time 0, empty trace, reseeded RNG, the ambient
    [Obs.Probe] sink re-read — {e without} allocating proc records,
    effect handlers, RMR cache pages or running set, and clearing only
    the cache bitsets of registers the last run touched: O(processes +
    registers touched). [record_trace] and [flip_oracle] keep their
    [create]-time values; [programs] of another length than at
    [create] raise [Invalid_argument].

    Shared registers are not touched: {!Memory.reset} the arenas the
    algorithm was allocated from first. A reused run is bit-identical
    to a run on fresh structures with the same seed (tested in
    [test_sim.ml]), and its {!trace} holds only its own events. *)

val n : t -> int
val time : t -> int
(** Total number of shared-memory steps performed so far. *)

val status : t -> int -> status
val steps : t -> int -> int
(** Shared-memory steps taken by a process. *)

val flips : t -> int -> int

val rmrs : t -> int -> int
(** Remote memory references of a process in the cache-coherent (CC)
    model, the cost measure of Golab, Hendler and Woelfel's O(1)-RMR
    leader election (the paper's reference for TAS from LeaderElect):
    every write is an RMR and invalidates other cached copies; a read is
    one only when the reader holds no valid copy (it then caches the
    register). The cache bitsets live in pages of 256 registers
    allocated on first touch, and a touched flag per register finds its
    first touch since {!reset} in O(1). *)

val max_rmrs : t -> int
val pending : t -> int -> Op.pending option
val first_step_time : t -> int -> int
(** Time of the process's first shared-memory step; -1 if none yet. *)

val finish_time : t -> int -> int
(** Time at which the process finished; -1 if still running or crashed. *)

val result : t -> int -> int option
(** Return value of the process's program, if finished. *)

val step : t -> int -> unit
(** Perform the pending operation of the given process and run it to its
    next operation (or to completion). Raises [Invalid_argument] if the
    process is not running. *)

val crash : t -> int -> unit

val view : t -> klass -> view
(** A fresh view of what an adversary of the given class sees now; its
    [runnable] is the live set, so it goes stale at the next step or
    crash. *)

val run : ?max_total_steps:int -> t -> adversary -> unit
(** Drive the execution until no process is running. Raises [Failure]
    when the execution needs more than [max_total_steps] (default
    [10_000_000]) shared-memory steps — the bound is inclusive: a run
    of exactly [max_total_steps] steps completes, one more fails. The
    failure signals a livelock bug rather than a legitimate long run. *)

val trace : t -> Op.event list
(** Events of the current run in execution order; empty unless
    [record_trace] was set at {!create}. {!reset} clears the event log,
    so after a reset this returns only events recorded since — the
    trace never spans two trials. *)

val max_steps : t -> int
(** Maximum over processes of shared-memory steps taken. *)

val results : t -> int option array
