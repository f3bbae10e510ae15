(** Sifting leader election: Theta(log log n) sifting Group Elections
    (Alistarh–Aspnes) followed by a tournament over the O(1) expected
    survivors.

    Every sifting level keeps at least one participant (a writer is
    always elected, and if nobody writes, everybody reads 0), and the
    tournament elects exactly one of the survivors, so the composite is
    a safe leader election for up to [n] participants with Theta(n)
    registers. Expected steps are dominated by the tournament climb:
    O(log n), with the sifting prefix cutting the {e contention} — not
    the depth — to O(1) after O(log log n) levels against the
    R/W-oblivious adversary.

    One source for both backends: the simulator instantiation below
    feeds the registry's [make], and {!make_atomic} packages
    [Make (Backend.Atomic_mem)] as its [make_mc]. *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t

  val elect : t -> M.ctx -> bool
  (** Uses [M.self] as the tournament leaf; requires it below [n]
      rounded up to a power of two. At most one call per slot. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool

val to_le : t -> Le.t

val make : Sim.Memory.t -> n:int -> Le.t

val make_atomic :
  Backend.Atomic_mem.mem -> n:int -> Backend.Atomic_mem.ctx Le.elect
(** [Make (Backend.Atomic_mem)], packaged for real domains. *)
