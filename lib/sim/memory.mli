(** Register allocator and space accounting.

    All shared registers of a simulated system are allocated from a
    single [Memory.t]. The number of registers allocated is the space
    complexity the paper's Section 5 reasons about.

    A memory also doubles as a reusable {e arena}: {!reset} restores
    every register allocated from it to its freshly-created state
    (value [0], no last writer) without allocating, so trial batches can
    build an algorithm structure once and recycle it per trial instead
    of rebuilding it (see [Engine.run_local] and DESIGN.md §9). The
    arena tracks the registers written since the last reset, so a reset
    costs O(registers written), however many registers exist.

    {b Declared vs built registers.} The space figure, {!allocated}, is
    the number of registers {e declared}: every id handed out, whether
    or not a register record exists behind it. Most structures build
    every register at construction, so the two coincide. A structure
    with millions of nodes of which a trial touches a few (classic
    RatRace's Theta(n^3) primary tree) instead {!reserve}s its nodes' id
    range at construction and builds a node on first access with
    {!build_at}, at exactly the ids and names eager construction would
    have given it. The count stays exact; the memory follows what is
    touched (see [Backend.Sim_mem.table] and DESIGN.md §9). *)

type t

type reg = private {
  id : int;  (** Allocation id, unique within a {!t}. *)
  name : string;  (** Debug name, e.g. ["ge[3].R[5]"]. *)
  mutable value : int;
  mutable last_writer : int;
  arena : t;  (** The memory the register was allocated from. *)
}
(** The register record; {!Register.t} re-exports it with its
    operations. *)

val create : unit -> t

val register : ?name:string -> t -> reg
(** Allocate a fresh register with value [0] and no last writer. *)

val write : reg -> writer:int -> int -> unit
(** Store a value and its writer. [writer] must be [>= 0]: the first
    write after a reset (or after allocation) is recognised by
    [last_writer < 0] and puts the register on its arena's dirty list. *)

val reset : t -> unit
(** Restore every register written since the last reset to the state
    immediately after allocation ([value = 0], [last_writer = -1]).
    Registers never written are already in that state. The allocation
    count is unchanged — {!allocated} still reports the space
    complexity of the structure. *)

val allocated : t -> int
(** Total number of registers declared so far: allocated by {!register}
    or reserved by {!reserve}. This is the space complexity. *)

val reserve : t -> int -> int
(** [reserve t k] declares [k] registers without building them and
    returns the first of their [k] consecutive ids. They count towards
    {!allocated} at once; {!build_at} builds them later. Raises
    [Invalid_argument] if [k < 0]. *)

val build_at : t -> base:int -> (unit -> 'a) -> 'a * int
(** [build_at t ~base f] runs [f] — typically an existing constructor
    such as [Rsplitter.create ~name mem] — with the allocation cursor
    rewound to [base], so the registers [f] allocates get the ids
    [base], [base + 1], ... that a {!reserve} handed out. Returns [f]'s
    result and the number of registers it allocated. The cursor is
    restored afterwards, also when [f] raises; [f] must stay inside the
    reserved range, which the caller checks with the returned count. *)
