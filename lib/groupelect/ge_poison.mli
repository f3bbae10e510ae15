(** PoisonPill Group Election (Alistarh, Gelashvili and Vladu,
    PODC 2015), for the adaptive adversary.

    A round owns an array of [size] cells. A participant first {e
    commits}: it writes 1 to cell [self mod size]. It then draws a coin
    with success probability [write_prob]: on success ({e high}) it is
    elected outright; on failure ({e low}) it writes 2 over its cell
    (the poison pill) and scans the whole array — it is elected iff it
    sees no cell holding 1. A visible 1 means some process is high, or
    still between its commit and its coin: either way the low process
    cannot rule out a high survivor, so it eliminates itself.

    At least one participant is always elected in a crash-free
    execution: any high process survives by fiat, and if every process
    goes low, the one whose poison write is last scans after every
    commit has been overwritten and sees no 1. (Cell collisions under
    [self mod size] can only elect {e more} processes — a low overwrite
    can mask a high's commit — never fewer, so the guarantee is
    unconditional.) The adaptive adversary gains nothing from watching
    the cells: the commit happens before the coin, so scheduling cannot
    correlate with the draw.

    Expected survivors are [write_prob * k] highs plus O(1) lows —
    strictly below {!Ge_sift}'s [write_prob * k + 1/write_prob], which
    is what lets a chain of these rounds beat the tournament's curve
    (see EXPERIMENTS.md E20). A crashed committer leaves a permanent 1
    and can poison every later low; that only reduces survivors, which
    the chain construction tolerates. *)

val max_cells : int
(** Cap on [size] used by {!schedule}: scans stay O(1) per round, at
    the cost of more cell collisions (hence a few more survivors) at
    very high contention. *)

module Make (M : Backend.Mem.S) : sig
  val create :
    ?name:string -> M.mem -> size:int -> write_prob:float -> M.ctx Ge.gen
end

val create :
  ?name:string -> Sim.Memory.t -> size:int -> write_prob:float -> Ge.t

val schedule : n:int -> (float * int) array
(** [(write_prob, size)] per round: {!Ge_sift.probability_schedule}'s
    [1/sqrt k] decay with [size = min max_cells (ceil (1/p))], extended
    with a single [1/sqrt n] round for small [n] (where the sift
    schedule is empty) so the PoisonPill path is always exercised.
    Flat-kernel compilations must reproduce the coin bit-for-bit: the
    threshold is {!Ge_sift.threshold}[ p] drawn against
    {!Ge_sift.resolution}. *)
