(** Atomic multi-reader multi-writer register.

    A register holds an [int] value (initially 0) and remembers the id of
    the process that last wrote it ([-1] initially). The last-writer
    field implements the paper's convention (Section 5) that every
    written value carries the writer's identifier, which defines the
    "visible" relation used by the covering argument. *)

type t = Memory.reg = private {
  id : int;  (** Allocation id, unique within a {!Memory.t}. *)
  name : string;  (** Debug name, e.g. ["ge[3].R[5]"]. *)
  mutable value : int;
  mutable last_writer : int;
  arena : Memory.t;  (** The memory the register was allocated from. *)
}

val create : ?name:string -> Memory.t -> t
(** Allocate a fresh register with initial value [0]. {!Memory.reset}
    restores it to this initial state ([value = 0], [last_writer = -1])
    if it was written since the previous reset. *)

val read : t -> int
(** Direct read; only the scheduler and test harnesses call this.
    Simulated process code must use {!Ctx.read}. *)

val write : t -> writer:int -> int -> unit
(** Direct write; only the scheduler calls this. [writer] is a pid, so
    [>= 0]: the first write since a reset enrols the register on its
    arena's dirty list (see {!Memory.write}). *)

val pp : t Fmt.t
