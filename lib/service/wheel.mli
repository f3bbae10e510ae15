(** Hierarchical timing wheel over integer virtual-time ticks.

    The service driver's event queue: O(1) amortised schedule and
    advance, zero allocation per event in steady state. Events are
    stored by value — time, ordering word, payload word — in
    fixed-size chunks of {!chunk} events; each (level, slot) holds a
    short list of chunks, and drained chunks return to a free list, so
    the pool follows the events in flight and never shrinks. Correct
    only for a monotone clock — events are popped in nondecreasing
    time order and [schedule] accepts any [at] at or after the last
    popped event's tick (zero-delay reschedules into the past of the
    current tick are ordered correctly; scheduling whole ticks into the
    past is not supported).

    Ordering is the driver's shard-invariant total order: exact event
    time, then ([key], [kseq]) lexicographically — identical to the
    binary-heap oracle, which is what makes reports byte-identical
    under either [Driver.config.events].

    Each event is three scalars: the time, the ordering word
    [ord = key lsl 42 lor kseq], and the payload word
    [meta = kind lsl 60 lor a lsl 30 lor b]. Packing turns the
    (key, kseq) tiebreak into one int compare. The packing bounds
    ([key] < 2^20, [kseq] < 2^42, [kind] < 4, [a] and [b] < 2^30) are
    checked by [schedule].

    Draining a tick copies its slot's chunks into the due arrays
    [ev_at] / [ev_ord] / [ev_meta] and sorts them; {!pop} returns a
    position in them. The record is exposed flatsim-style so the driver
    reads popped event fields as direct array loads (a cross-module
    accessor returning [float] would box on every call). Treat all
    fields as read-only outside this module. *)

type t = {
  mutable ev_at : float array;  (** due event times, by {!pop} position *)
  mutable ev_ord : int array;  (** [key lsl 42 lor kseq] ordering word *)
  mutable ev_meta : int array;  (** [kind lsl 60 lor a lsl 30 lor b] *)
  mutable due_len : int;  (** due events not yet popped *)
  mutable ch_at : float array array;  (** per chunk: event times *)
  mutable ch_om : int array array;  (** per chunk: (ord, meta) pairs *)
  mutable ch_len : int array;  (** per chunk: events held *)
  mutable ch_next : int array;  (** per chunk: slot / free-list link *)
  mutable nchunks : int;
  mutable free : int;
  mutable live : int;
  mutable hw_live : int;
  slots : int array;
  occ : int array;
  mutable cur : int;
}

val chunk : int
(** Events per chunk: 32. *)

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
(** [create ~capacity ()] reserves chunks for [capacity] events
    (default 1024, minimum 16); further chunks are allocated one at a
    time when the free list runs dry. *)

val schedule :
  t -> at:float -> key:int -> kseq:int -> kind:int -> a:int -> b:int -> unit
(** Schedule an event. Raises [Invalid_argument] if [at] is negative,
    NaN, or at least 2^48 ticks beyond the current tick, or if a field
    exceeds its packing bound. *)

val pop : t -> int
(** Pop the earliest live event (by the (at, key, kseq) order) and
    return its position [i] in the due arrays, or [-1] if the wheel is
    empty. [ev_at.(i)], [ev_ord.(i)] and [ev_meta.(i)] are the popped
    event until the next [schedule] call. *)

val reset : t -> unit
(** [reset w] readies a drained wheel for reuse: the clock goes back to
    tick 0 and {!high_water} to 0, and the pool keeps its chunks.
    Raises [Invalid_argument] if any event is still scheduled. *)

val live : t -> int
(** Number of scheduled, not-yet-popped events. *)

val now_tick : t -> int
(** Current tick (the wheel's internal clock position). *)

val high_water : t -> int
(** High-water mark of {!live} over the wheel's lifetime — the most
    events ever simultaneously scheduled. *)

val pool_capacity : t -> int
(** Events the chunk pool can hold: {!chunk} times the chunks
    allocated (never shrinks). A chunk is allocated only when every
    chunk is in use, and each slot holds at most one partly filled
    chunk, so past the [create] reservation this stays within
    {!high_water} plus {!chunk} per occupied slot at the peak. *)

val slots_occupied : t -> int
(** Number of occupied (level, slot) pairs right now, counted from the
    occupancy bitmaps (the due arrays being drained count as one).
    Distinct from {!live}: dense ticks put many events in one slot. *)
