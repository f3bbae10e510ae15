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

    Information hiding is enforced by construction: the corresponding
    fields of {!pending_view} are [None]. *)

type klass = Adaptive | Location_oblivious | Rw_oblivious | Oblivious

val pp_klass : klass Fmt.t

type status = Running | Finished of int | Crashed

type pending_view = {
  view_pid : int;
  view_kind : [ `Read | `Write ] option;
  view_reg : int option;  (** Register allocation id. *)
  view_reg_name : string option;
  view_value : int option;  (** Pending write value. *)
  view_steps : int;  (** Shared-memory steps this process has taken. *)
}

type view = {
  view_time : int;
  runnable : Running.t;
      (** The pids of processes that can be scheduled, ascending: the
          scheduler's live running set, not a copy. It is valid only
          during [decide] — the scheduler shrinks it in place as
          processes finish or crash — so an adversary that keeps pids
          must copy them out. *)
  pending_of : int -> pending_view;
}

type decision =
  | Schedule of int  (** Let this process perform its pending operation. *)
  | Crash_proc of int
  | Halt  (** Crash every process still running. *)

type adversary = {
  adv_name : string;
  adv_klass : klass;
  decide : view -> decision;
}

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

    [record_trace] (default [false]) logs every event for {!trace}: the
    log is filled by a recorder sink that sees each event just before
    the ambient [Obs.Probe] sink does.

    [flip_oracle] overrides coin flips, for model checking: it receives
    the flipping process and the bound ([-l] encodes the geometric draw
    of {!Ctx.flip_geometric} with parameter [l]); returning [None] falls
    back to the scheduler's RNG.

    The ambient [Obs.Probe] sink is captured here (and re-read at each
    {!reset}), so install a sink {e before} building the system under
    observation; with no sink installed every probe point is a single
    field test and the execution is bit-identical to an uninstrumented
    one. *)

val reset : ?seed:int64 -> t -> (Ctx.t -> int) array -> unit
(** [reset ~seed t programs] restores [t] to the state
    [create ~seed programs] would produce — every process Running and
    poised at its first operation, time 0, empty trace, reseeded RNG —
    {e without} allocating new proc records, effect handlers, RMR cache
    pages or running set. It clears only the cache bitsets of
    registers the previous run touched, so its cost is
    O(processes + registers touched), not O(registers allocated). [record_trace] and [flip_oracle] keep their
    [create]-time values. [programs] must have the same length as at [create]; other
    lengths raise [Invalid_argument].

    Shared registers are not touched: callers recycling an algorithm
    structure across trials must {!Memory.reset} the arena(s) it was
    allocated from first, then [reset] the scheduler. A reused run is
    bit-identical to a run on freshly created structures with the same
    seed (tested in [test_sim.ml]).

    [reset] discards all recorded events: with [record_trace] set,
    {!trace} afterwards returns only events of the new (post-reset)
    run, never a mix of runs. It also re-reads the ambient [Obs.Probe]
    sink, so installing a sink between trials takes effect at the next
    reset. *)

val n : t -> int
val time : t -> int
(** Total number of shared-memory steps performed so far. *)

val status : t -> int -> status
val steps : t -> int -> int
(** Shared-memory steps taken by a process. *)

val flips : t -> int -> int

val rmrs : t -> int -> int
(** Remote memory references of a process in the cache-coherent (CC)
    model: every write is an RMR and invalidates other processes' cached
    copies; a read is an RMR only when the reader holds no valid cached
    copy (it then caches the register). This is the cost measure of
    Golab, Hendler and Woelfel's O(1)-RMR leader election, the paper's
    reference for the TAS-from-LeaderElect construction.

    The cache bitsets live in pages of 256 registers allocated on first
    touch, so their memory follows the registers a run touches, not the
    largest register id. Each register also carries a touched flag, so
    finding a register's first touch since {!reset} is O(1). *)

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
(** What an adversary of the given class sees now; its [runnable] is
    the live set, so it goes stale at the next step or crash. *)

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
