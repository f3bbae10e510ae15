(** RatRace's primary tree (Section 3.1).

    A complete binary tree of the given height. Every node holds a
    randomized splitter and a 3-process leader election. A process
    descends from the root, turning left or right as its randomized
    splitter calls dictate, until it wins a splitter (then it ascends,
    winning the per-node elections back to the root, or loses) or it is
    deflected at a leaf and {e falls off} the tree.

    The 3-process election at a node is shared between the splitter
    winner at that node (port 0) and the winners coming up from its left
    and right subtrees (ports 1 and 2). At a leaf, port 1 is reserved
    for a process re-entering the tree from outside (the elimination
    paths of the lean variant use this).

    The nodes live in two {!Backend.Mem.S.table}s, one of splitters and
    one of elections, each indexed by heap slot [0 .. 2^(height+1) - 1]
    (slot 0 is declared but unused). On either backend a node's
    registers are built when a process first reaches it (on the
    simulator at the ids and names eager construction would give them);
    the declared count is exact from [create] on. *)

type outcome = Lost | Won | Fell_off of int  (** Leaf index, 0-based. *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:string -> M.mem -> height:int -> t
  val height : t -> int
  val leaves : t -> int
  val run : ?notify_stop:(unit -> unit) -> t -> M.ctx -> outcome
  val ascend_from_leaf : t -> M.ctx -> leaf:int -> bool
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> height:int -> t

val height : t -> int

val leaves : t -> int

val run : ?notify_stop:(unit -> unit) -> t -> Sim.Ctx.t -> outcome
(** Enter at the root. At most one call per process. [notify_stop]
    fires when the caller wins one of the randomized splitters. *)

val ascend_from_leaf : t -> Sim.Ctx.t -> leaf:int -> bool
(** [ascend_from_leaf t ctx ~leaf] enters the election at the given leaf
    on its external port and tries to win every election up to the root;
    [true] means the caller won the tree. Used by the winner of
    elimination path [i] of the lean RatRace, which re-enters at leaf
    [i]. At most one external process per leaf. *)
