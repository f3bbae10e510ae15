(** One-shot linearizable test-and-set on real domains: {!Tas.Make}
    over {!Backend.Atomic_mem}, fed with any atomic election (for
    example one built by a registry entry's [make_mc]).

    For comparison, {!native} wraps the hardware-level
    [Atomic.exchange] — the primitive the paper's algorithms implement
    from plain reads and writes. *)

type t

val create :
  (Backend.Atomic_mem.mem -> Backend.Atomic_mem.ctx -> bool) -> t
(** [create build] builds an election in a fresh arena with [build],
    then the doorway register beside it. The election must guarantee
    at most one [true] across all callers. *)

val native : unit -> t
(** [Atomic.exchange]-based reference. Ignores the [Random.State.t]
    and slot passed to {!apply} — the hardware primitive flips no
    coins. *)

val apply : t -> Random.State.t -> slot:int -> int
(** Returns 0 to exactly one caller (the winner), 1 to all others. At
    most one call per slot. *)
