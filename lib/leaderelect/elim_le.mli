(** Elimination-path leader election: the Section 3 elimination path as
    a standalone n-process election.

    A path of [n] splitter + 2-process-duel nodes; with at most [n]
    participants nobody falls off (Claim 3.1), at least one participant
    stops at a splitter, and the chain of duels funnels exactly one
    winner out of node 0. O(k) worst-case steps, O(1) typical (most
    processes lose at the first few splitters); Theta(n) registers.
    Falling off the right end raises [Failure].

    One source for both backends: the simulator instantiation below
    feeds the registry's [make], and {!make_atomic} packages
    [Make (Backend.Atomic_mem)] as its [make_mc]. *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t

  val elect : t -> M.ctx -> bool
  (** [M.self] must be distinct per caller (it seeds the splitter
      races); at most one call per slot. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool

val to_le : t -> Le.t

val make : Sim.Memory.t -> n:int -> Le.t

val make_atomic :
  Backend.Atomic_mem.mem -> n:int -> Backend.Atomic_mem.ctx Le.elect
(** [Make (Backend.Atomic_mem)], packaged for real domains. *)
