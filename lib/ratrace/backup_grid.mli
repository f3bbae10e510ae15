(** RatRace's backup grid (Section 3.1): an [n x n] grid of deterministic
    splitters with 3-process elections, entered by processes that fall
    off the primary tree.

    Node [(i, j)] has children [(i+1, j)] (on [L]) and [(i, j+1)] (on
    [R]). A process enters at [(0, 0)], descends until it wins a
    splitter — guaranteed before it leaves the diagonal [i + j < n] when
    at most [n] processes enter (Moir–Anderson) — and then retraces its
    path, winning the election of every node on it; the process that
    wins the election at [(0, 0)] wins the grid. Space is Theta(n^2)
    declared registers; on either backend a node's registers are built
    when a process first reaches it (see {!Backend.Mem.S.table}).

    Written over {!Backend.Mem.S} like the primary tree. *)

type outcome = Lost | Won

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t
  val run : ?notify_stop:(unit -> unit) -> t -> M.ctx -> outcome
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val run : ?notify_stop:(unit -> unit) -> t -> Sim.Ctx.t -> outcome
(** At most one call per process; raises [Failure] if a process leaves
    the grid, which violates the Moir–Anderson guarantee. [notify_stop]
    fires when the caller wins one of the grid's splitters. *)
