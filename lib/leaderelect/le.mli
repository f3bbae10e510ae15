(** Common shape of an n-process leader-election object.

    [elect] may be called at most once per process; at most one call
    returns [true], and if no participant crashes exactly one does.

    Every registry election is written once, as a functor matching
    {!S}; {!Rtas.Registry} applies it to each backend and packages the
    instance as an {!elect}, the bare function. It is polymorphic in
    the backend's execution context: [t] is the simulator's, and an
    entry's [make_mc] returns a [Backend.Atomic_mem.ctx elect] for real
    domains. *)

type 'ctx elect = 'ctx -> bool

type t = Sim.Ctx.t elect

(** The election signature, modelled on {!Primitives.Duel.S}: one
    source over {!Backend.Mem.S}, instantiated per backend. [create]
    allocates the object's registers for up to [n] participants from
    the arena, prefixing their names with [name] (each election has its
    own default); [elect] uses {!Backend.Mem.S.self} as the caller's
    slot, which must be below [n] and distinct per caller.
    Constructions that take an election ({!Aa.Make_fallback},
    [Combined.Combine.Make]) are functors over [S], so any election
    composes with them. *)
module type S = functor (M : Backend.Mem.S) -> sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t
  val elect : t -> M.ctx -> bool
end

val programs : t -> k:int -> (Sim.Ctx.t -> int) array
(** [programs le ~k] is [k] copies of a program that calls [elect] once
    and returns 1 if it won, 0 otherwise — ready for {!Sim.Sched.create}. *)

val winners : Sim.Sched.t -> int list
(** Pids whose program returned 1. *)
