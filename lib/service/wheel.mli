(** Hierarchical timing wheel over integer virtual-time ticks.

    The service driver's event queue: O(1) amortised schedule and
    advance, zero allocation per event in steady state (events live in
    a preallocated free-list pool of parallel scalar arrays that only
    grows, never shrinks). Correct only for a monotone clock — events
    are popped in nondecreasing time order and [schedule] accepts any
    [at] at or after the last popped event's tick (zero-delay
    reschedules into the past of the current tick are ordered
    correctly; scheduling whole ticks into the past is not supported).

    Ordering is the driver's shard-invariant total order: exact event
    time, then ([key], [kseq]) lexicographically — identical to the
    binary-heap oracle, which is what makes `--events heap|wheel`
    reports byte-identical.

    The pool packs each event into four scalar arrays: the time, the
    ordering word [ord = key lsl 42 lor kseq], the payload word
    [meta = kind lsl 60 lor a lsl 30 lor b], and the intrusive link.
    Packing halves the cache lines touched per event against one array
    per field, and turns the (key, kseq) tiebreak into one int
    compare. The packing bounds ([key] < 2^20, [kseq] < 2^42, [kind]
    < 4, [a] and [b] < 2^30) are checked by [schedule].

    The record is exposed flatsim-style so the driver reads popped
    event fields as direct array loads (a cross-module accessor
    returning [float] would box on every call). Treat all fields as
    read-only outside this module. *)

type t = {
  mutable ev_at : float array;  (** event time, indexed by event id *)
  mutable ev_ord : int array;  (** [key lsl 42 lor kseq] ordering word *)
  mutable ev_meta : int array;  (** [kind lsl 60 lor a lsl 30 lor b] *)
  mutable ev_next : int array;  (** intrusive slot / free-list links *)
  mutable free : int;
  mutable live : int;
  mutable hw_live : int;
  slots : int array;
  occ : int array;
  mutable cur : int;
  mutable due : int array;
  mutable due_len : int;
}

val max_key : int
(** Largest schedulable [key]: [2^20 - 1]. *)

val max_kseq : int
(** Largest schedulable [kseq]: [2^42 - 1]. *)

val max_ab : int
(** Largest schedulable [a] / [b] payload: [2^30 - 1]. *)

val max_kind : int
(** Largest schedulable [kind]: [3]. *)

val key_of_ord : int -> int
(** Unpack the key from an [ev_ord] word. *)

val kseq_of_ord : int -> int
(** Unpack the per-key sequence from an [ev_ord] word. *)

val kind_of_meta : int -> int
(** Unpack the event kind from an [ev_meta] word. *)

val a_of_meta : int -> int
(** Unpack the [a] payload from an [ev_meta] word. *)

val b_of_meta : int -> int
(** Unpack the [b] payload from an [ev_meta] word. *)

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] preallocates a pool of [capacity] events
    (default 1024, minimum 16); the pool doubles on demand. *)

val schedule :
  t -> at:float -> key:int -> kseq:int -> kind:int -> a:int -> b:int -> unit
(** Schedule an event. Raises [Invalid_argument] if [at] is negative,
    NaN, or at least 2^48 ticks beyond the current tick, or if a field
    exceeds its packing bound. *)

val pop : t -> int
(** Pop the earliest live event (by the (at, key, kseq) order) and
    return its id, or [-1] if the wheel is empty. The id's pool fields
    remain readable until the next [schedule] call. *)

val reset : t -> unit
(** [reset w] readies a drained wheel for reuse: the clock goes back to
    tick 0 and {!high_water} to 0, and the pool keeps its capacity.
    Raises [Invalid_argument] if any event is still scheduled. *)

val live : t -> int
(** Number of scheduled, not-yet-popped events. *)

val now_tick : t -> int
(** Current tick (the wheel's internal clock position). *)

val high_water : t -> int
(** High-water mark of {!live} over the wheel's lifetime — the most
    events ever simultaneously scheduled, and hence the pool pressure
    that drove any {!pool_capacity} growth. *)

val pool_capacity : t -> int
(** Current event-pool capacity (the preallocated size, doubled on
    demand; never shrinks). Always [>= high_water]. *)

val slots_occupied : t -> int
(** Number of occupied (level, slot) pairs right now, counted from the
    occupancy bitmaps (the due buffer being drained counts as one).
    Distinct from {!live}: dense ticks put many events in one slot. *)
