(** The paper's headline algorithm (Theorem 2.3): adaptive leader
    election with O(log* k) expected steps against the location-oblivious
    adversary, from O(n) registers.

    It is the Section 2.1 chain instantiated with the Figure 1
    GroupElect. Only the first [cutoff] levels (default
    [3 * ceil(log2 n)], following the paper's observation that with
    probability [1 - 1/n] only O(log n) levels are used) carry real
    GroupElect objects of O(log n) registers each; the rest are dummies
    that elect everyone, leaving the splitters to eliminate at least one
    process per level. Total space: O(log^2 n) + Theta(n) = Theta(n). *)

val default_cutoff : n:int -> int
(** Real GroupElect levels of [create]: [min n (3 * ceil(log2 n))]. *)

(** Matches {!Le.S}. *)
module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t

  val create_cutoff : ?name:string -> cutoff:int -> M.mem -> n:int -> t
  (** [create] with the first [min cutoff n] levels real (the E12
      ablation). *)

  val elect : t -> M.ctx -> bool
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val create_cutoff :
  ?name:string -> cutoff:int -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool
