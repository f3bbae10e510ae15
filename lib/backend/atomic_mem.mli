(** The real-multicore backend of {!Mem.S}.

    Registers are [Atomic.t] cells — OCaml's [Atomic] operations are
    sequentially consistent, so they model the paper's atomic MRMW
    registers directly — and the context carries the caller's contender
    slot plus an optional per-domain [Random.State] for coin flips.
    [mem] only counts allocations (for space accounting); the probe
    hooks are no-ops. Safe to share one instantiated algorithm across
    domains: all mutable state lives in the atomics, and table entries
    built on first access are published atomically. *)

type mem
type reg = int Atomic.t
type ctx

val create : unit -> mem

val allocated : mem -> int
(** Registers declared in this arena so far: every register allocated
    while building an object, plus the not yet built entries of its
    tables. *)

val alloc : mem -> name:string -> reg

type 'a table
(** Lazy, as on the simulator: entry 0 is built at once (it fixes the
    stride) and entry [i] on its first {!get}, by whichever domain gets
    there first. Each built entry is published with a compare-and-set;
    a domain that loses the race drops its own node and returns the
    winner's, so every caller sees the physically same entry. A
    lazily built entry's registers are counted in the entry's own
    tally, checked against the stride, and never in {!allocated}: a
    table declares all [len * stride] registers when it is created, so
    {!allocated} equals the simulator's count before and after any
    access. An untouched table costs one slot per 64 entries. *)

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
