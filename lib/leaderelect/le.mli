(** Common shape of an n-process leader-election object.

    [elect] may be called at most once per process; at most one call
    returns [true], and if no participant crashes exactly one does.

    The record is polymorphic in the backend's execution context: [t]
    is the simulator's, and a dual algorithm's [make_atomic] returns a
    [Backend.Atomic_mem.ctx elect] for real domains. *)

type 'ctx elect = {
  le_name : string;
  elect : 'ctx -> bool;
}

type t = Sim.Ctx.t elect

val programs : t -> k:int -> (Sim.Ctx.t -> int) array
(** [programs le ~k] is [k] copies of a program that calls [elect] once
    and returns 1 if it won, 0 otherwise — ready for {!Sim.Sched.create}. *)

val winners : Sim.Sched.t -> int list
(** Pids whose program returned 1. *)
