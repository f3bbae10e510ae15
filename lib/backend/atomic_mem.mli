(** The real-multicore backend of {!Mem.S}.

    Registers are [Atomic.t] cells — OCaml's [Atomic] operations are
    sequentially consistent, so they model the paper's atomic MRMW
    registers directly — and the context carries the caller's contender
    slot plus an optional per-domain [Random.State] for coin flips.
    [mem] only counts allocations (for space accounting); the probe
    hooks are no-ops. Safe to share one instantiated algorithm across
    domains: all mutable state lives in the atomics. *)

type mem
type reg = int Atomic.t
type ctx

val create : unit -> mem

val allocated : mem -> int
(** Registers allocated from this arena so far. *)

val alloc : mem -> name:string -> reg

type 'a table
(** Built eagerly, as a plain array: {!table} builds every entry before
    it returns, so an instantiated algorithm is complete before any
    domain runs it and lookups are plain array reads. *)

val table : mem -> name:string -> int -> (int -> 'a) -> 'a table
val get : 'a table -> int -> 'a

val ctx : ?rng:Random.State.t -> slot:int -> unit -> ctx
(** [rng] may be omitted for purely deterministic algorithms (e.g. the
    Moir–Anderson splitter); a coin flip without one raises
    [Invalid_argument]. [slot] must be in [0 .. n-1], distinct per
    participant; a negative [slot] raises [Invalid_argument] naming
    it. *)

val self : ctx -> int
val read : ctx -> reg -> int
val write : ctx -> reg -> int -> unit
val flip : ctx -> int -> int
val flip_bool : ctx -> bool
val flip_geometric : ctx -> int -> int
val enter : ctx -> string -> unit
val leave : ctx -> string -> unit
