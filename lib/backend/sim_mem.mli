(** The simulator backend of {!Mem.S}.

    Every operation forwards to the effects-based simulator — [alloc]
    is {!Sim.Register.create} (same arena, same allocation ids, same
    names), reads/writes/flips perform the {!Sim.Ctx} effects, and the
    probe hooks are {!Obs.enter}/{!Obs.leave} keyed by the simulator
    pid. An algorithm instantiated with this backend is therefore
    bit-identical to the same algorithm hand-written against [Sim.Ctx]:
    identical register layout, identical effect sequence, identical
    flip stream, identical probe spans. The type equalities below are
    public so existing [Sim]-typed call sites keep compiling against
    the functorized modules unchanged.

    A {!table} is lazy: entry 0 is built at once (it fixes the stride),
    the ids of the other entries are reserved with
    {!Sim.Memory.reserve}, and entry [i] is built on its first {!get}
    with {!Sim.Memory.build_at} at id [base + i * stride] — the ids and
    names eager construction gives it, so traces and register counts
    are unchanged. Built entries are kept keyed by index: a table's
    memory is O(entries built), not O(len). Classic RatRace declares
    3,170,306 registers at n=64 this way and builds the few hundred
    nodes a trial touches. *)

type mem = Sim.Memory.t
type reg = Sim.Register.t
type ctx = Sim.Ctx.t

val alloc : mem -> name:string -> reg

type 'a table

val table : mem -> name:string -> int -> (int -> 'a) -> 'a table
val get : 'a table -> int -> 'a
val self : ctx -> int
val read : ctx -> reg -> int
val write : ctx -> reg -> int -> unit
val flip : ctx -> int -> int
val flip_bool : ctx -> bool
val flip_geometric : ctx -> int -> int
val enter : ctx -> string -> unit
val leave : ctx -> string -> unit
