(** The original RatRace leader election (Alistarh, Attiya, Gilbert,
    Giurgiu, Guerraoui, DISC 2010), as summarized in Section 3.1.

    Primary tree of height [3 * ceil(log2 n)] backed by an [n x n] grid;
    the two winners meet in a final 2-process election. Expected step
    complexity O(log k) against the adaptive adversary, but
    Theta(n^3) registers — the space cost the paper's Section 3
    eliminates. [create] declares all of them ({!Sim.Memory.allocated}
    is 3,170,306 at n=64), but on either backend a tree or grid node's
    registers are built only when a process first reaches it, so a
    run's memory follows the nodes it touches. *)

(** Matches [Leaderelect.Le.S]. *)
module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t

  val elect : t -> M.ctx -> bool
  (** At most one call per process; at most [n] processes. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool

val tree_height : n:int -> int
