(** Per-phase step/RMR attribution: a {!Probe} sink that aggregates the
    simulator event stream into per-phase accounting.

    Attribution is {e leaf} (innermost open span): each step of a
    process counts toward the phase at the top of that process's span
    stack, or the pseudo-phase ["(unattributed)"] outside every span.
    Per-span step/RMR samples are recorded when a span closes cleanly;
    spans still open when the process crashes or finishes are drained
    and counted as [unclosed] instead (their steps were already
    attributed live).

    A collector is single-domain mutable state. For parallel runs give
    each Engine worker its own collector ([Engine.run_probed]) and
    combine the resulting {!snapshot}s with {!merge}, which is
    associative and commutative with {!empty_snapshot} as identity. *)

type t

val create : unit -> t

val sink : t -> Probe.sink
(** The sink feeding this collector; install it with [Probe.install] or
    [Probe.with_sink]. *)

(** {1 Snapshots} *)

type phase_snapshot = {
  ps_phase : string;
  ps_calls : int;  (** Spans closed cleanly. *)
  ps_unclosed : int;  (** Spans open at crash/finish. *)
  ps_steps : int;
  ps_rmrs : int;
  ps_writes : int;
  ps_invalidations : int;  (** Cached copies invalidated by writes. *)
  ps_step_samples : float array;  (** Steps per closed span, sorted. *)
  ps_rmr_samples : float array;  (** RMRs per closed span, sorted. *)
}

type snapshot = {
  sn_phases : phase_snapshot list;  (** Sorted by phase name. *)
  sn_steps : int;
  sn_rmrs : int;
  sn_flips : int;
  sn_crashes : int;
  sn_finishes : int;
  sn_span_errors : int;  (** Exits with no matching enter. *)
}

val snapshot : t -> snapshot

val empty_snapshot : snapshot
(** The identity of {!merge}. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum; per-span samples are concatenated and re-sorted, so
    merging is order-independent. *)
