(** Probe's metrics core: named integer counters grouped in a registry.

    A registry is single-domain mutable state — one per Engine worker in
    parallel runs. Cross-domain aggregation goes through immutable
    {!snapshot} values and the associative {!merge} (tested in
    [test_obs.ml]), mirroring how the engine merges per-worker GC
    deltas. Bumping a counter is a single field increment; with no
    registry wired up nothing here is ever called, so the
    no-observability cost of instrumented code is one branch. *)

type t
(** A registry of named counters. Not thread-safe: keep one per
    domain. *)

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Snapshots and aggregation} *)

type snapshot = { counters : (string * int) list  (** Sorted by name. *) }

val empty_snapshot : snapshot
(** The identity of {!merge}. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum. Associative and commutative, with {!empty_snapshot}
    as identity — per-worker snapshots may be merged in any grouping. *)

val pp_snapshot : snapshot Fmt.t
