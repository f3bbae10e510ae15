(** The MEM signature: the abstract shared-memory machine every election
    algorithm is written against, exactly once.

    An algorithm functorized over [S] sees multi-reader multi-writer
    atomic integer registers (allocated from a [mem] arena), a per-call
    execution context [ctx] carrying the caller's identity and coin
    source, and two probe hooks for phase attribution. Two backends
    implement it:

    - {!Sim_mem} forwards every operation to the effects-based simulator
      ({!Sim.Ctx}/{!Sim.Memory}/{!Obs}). Its executions are
      {e bit-identical} to the pre-functor hand-written code: same
      registers allocated in the same order with the same names, same
      effect sequence, same flip stream (see DESIGN.md §11).
    - {!Atomic_mem} runs on real domains: registers are [Atomic.t],
      coins come from a per-domain [Random.State], probes are no-ops.

    The contract mirrors the paper's model: registers hold integers
    (initially 0), operations are atomic reads and writes, and coin
    flips are local — the adversary (simulator scheduler or OS) only
    controls the interleaving of the shared-memory steps. *)

module type S = sig
  type mem
  (** Register arena. Algorithms allocate from it while they are
      constructed; only a {!table}'s nodes may be built later, on first
      access, at ids reserved during construction. *)

  type reg
  (** One atomic integer register, initially 0. *)

  type ctx
  (** Per-process execution context: identity + coin source. *)

  val alloc : mem -> name:string -> reg
  (** Allocate a fresh register. [name] is diagnostic (trace/metric
      labels in the simulator; ignored on atomics) but backends must not
      let it affect behaviour. *)

  type 'a table
  (** A fixed-length table of uniform nodes: a tree's or a grid's
      splitters, elections, ... *)

  val table : mem -> name:string -> int -> (int -> 'a) -> 'a table
  (** [table mem ~name len build] is the table whose entry [i] is
      [build i]; [build] allocates its registers from [mem]. The
      registers are numbered as if the entries were built eagerly in
      index order: entry [i]'s come [i] strides after entry 0's, where
      the stride is the number of registers entry 0 allocates. Every
      entry must allocate exactly that many registers; a builder that
      does not, and a [len < 1], raise [Invalid_argument] naming the
      table. Both backends build entry 0 at once and entry [i] on its
      first {!get}, so a table's memory is O(entries touched), while
      its space figure counts all [len] entries at once. *)

  val get : 'a table -> int -> 'a
  (** [get t i] is entry [i], [0 <= i < len]. Allocation-free once the
      entry is built. *)

  val self : ctx -> int
  (** The caller's contender slot, [0 .. n-1]. Algorithms use it for
      symmetry breaking (splitter race ids, tournament leaves); it must
      be distinct per participant of one object. *)

  val read : ctx -> reg -> int

  val write : ctx -> reg -> int -> unit

  val flip : ctx -> int -> int
  (** [flip ctx bound] is a uniform draw from [0 .. bound - 1]. *)

  val flip_bool : ctx -> bool
  (** A fair coin. [Sim_mem] implements it as [flip ctx 2 = 1] — the
      exact expression the pre-functor code used — so the simulator's
      flip stream is unchanged. *)

  val flip_geometric : ctx -> int -> int
  (** [flip_geometric ctx l] draws [x] with [Pr(x = i) = 2^-i],
      truncated to [1 .. l] (the cap absorbs the tail mass). *)

  val enter : ctx -> string -> unit
  (** Probe hook: the caller enters the named algorithm phase. Free when
      no observer is attached; always free on atomics. *)

  val leave : ctx -> string -> unit
end
