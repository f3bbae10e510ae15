(** The flat execution kernel: preallocated step-indexed state machines.

    A {!program} is an election hand-compiled to explicit state: shared
    registers live in one int array, every process's locals in a fixed
    slice of another, and the "current continuation" is nothing but a
    program counter stored in the frame, encoding which shared-memory
    operation is pending. Stepping a process calls its [p_resume],
    which executes that pending read/write against the register file
    and runs the compiled code to the next operation — no effect,
    closure or continuation is allocated anywhere on the path, and
    {!reset} restores a machine in place so one arena serves millions
    of trials.

    Runs are bit-identical to the effect-handler simulator
    ({!Sim.Sched}) on the same algorithm, seed and schedule (pinned by
    test_flatsim's differential suite), and {!run} takes any oblivious
    adversary, a {!Fault.Plan} over one included. The effect path
    remains the oracle for the classes that see pending operations, and
    for Explore, Lincheck and Probe (DESIGN.md §13). *)

type t = {
  prog : program;
  capacity : int;
  frame_words : int;
  regs : int array;  (** shared register file *)
  stamp : int array;  (** per register: epoch of its last write *)
  dirty : int array;  (** registers written this epoch *)
  mutable n_dirty : int;
  mutable epoch : int;
  frames : int array;  (** [capacity * frame_words] process locals *)
  mutable flip_seed : int64;
      (** shared flip stream (the image of Sched's rng): flip [i], from
          1, is splitmix64 draw [i] of [flip_seed] *)
  mutable flip_idx : int;  (** flips drawn since {!reset} *)
  status : int array;  (** 0 running / 1 finished / 2 crashed *)
  results : int array;
  steps : int array;
  flips : int array;
  mutable time : int;
  mutable active : int;
  running : Sim.Running.t;
      (** The running pids, ascending: the same set {!Sim.Sched} keeps,
          so an adversary indexes it alike on either kernel. *)
  view : Sim.Sched.view;
      (** The oblivious view {!run} refreshes before each decision. *)
  record_flips : bool;
  mutable flip_log : (int * int * int * int) list;
}

and program = {
  p_name : string;
  p_regs : int;  (** register-file size *)
  p_frame : int;  (** locals per process *)
  p_start : t -> int -> unit;
      (** [p_start m pid]: run [pid] from its entry point to its first
          shared-memory operation, flipping on the way. {!reset} calls
          it for every pid in order, as [Sched.create] runs each
          program to its first effect. *)
  p_resume : t -> int -> unit;
      (** One scheduled step: execute the pending operation the frame
          pc names, then run local code to the next one, or retire
          the process (set its [status] to 1 and its [results] slot,
          and remove it from [running]). The register write, the
          flips and the retirement live in programs.ml, beside their
          only caller. *)
}

(** {1 Construction and arena reuse} *)

val create : ?seed:int64 -> ?record_flips:bool -> procs:int -> program -> t
(** Allocates the arenas and runs every process to its first operation
    (flipping on the way), in pid order — the flat [Sched.create]. *)

val reset : seed:int64 -> ?procs:int -> t -> unit
(** Restore to the state [create ~seed] would produce, allocating
    nothing. The seed is required: an optional one would make every
    caller box it.
    [?procs] may shrink the run below capacity (the service driver's
    per-round contender count); defaults to full capacity. *)

(** {1 Schedules} *)

val run : ?max_total_steps:int -> t -> Sim.Sched.adversary -> unit
(** {!Sim.Sched.run} over the machine, with the same decisions, step
    bound and [Failure]: the kernel's one scheduling loop. The adversary
    sees [runnable], the time and each pid's step count. A crashed pid
    retires with status 2 and no result. A step allocates nothing but
    what the adversary does, and [random_oblivious], [round_robin] and
    a plan over them allocate nothing. Raises [Invalid_argument], before
    any step, unless the adversary is oblivious. *)

val run_random : ?max_total_steps:int -> t -> seed:int64 -> unit
(** [run m (Sim.Adversary.random_oblivious ~seed)]: an alias kept for
    the benchmark's callers, retired with them. *)

(** {1 Observation (mirrors Sched)} *)

val procs : t -> int
val time : t -> int
val running : t -> int -> bool
val result : t -> int -> int option
val results : t -> int option array
val steps : t -> int -> int

val total_flips : t -> int
(** Sum of the active pids' flip counts — the run's total coin cost,
    the flat mirror of summing [Sched]'s per-pid flip counts. *)

val flip_log : t -> (int * int * int * int) list
(** [(time, pid, bound, outcome)] in draw order; bound < 0 encodes a
    geometric draw capped at [-bound], matching [Op.Flip] events. *)
