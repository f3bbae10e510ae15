(** Latency recording: exact samples or a log-bucketed histogram.

    [`Log] mode holds one {!Obs.Logbucket} histogram: memory bounded by
    the bucket count (no per-client latency array — the mode
    million-client runs use), percentiles read off bucket midpoints
    within ~1.6% relative error of exact, mean and max exact.
    [`Exact] mode records every sample and yields exact nearest-rank
    percentiles — the small-run default and the cross-check oracle for
    the bucketed mode.

    {!merge_into} is associative and commutative in both modes, so
    per-shard partials combine into the same snapshot regardless of
    shard count or merge grouping. *)

type t

val create : [ `Exact | `Log ] -> t
val mode : t -> [ `Exact | `Log ]

val mode_name : t -> string
(** ["exact"] or ["hist"] — the report's [latency.mode] field. *)

val count : t -> int
val observe : t -> float -> unit

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]. Raises [Invalid_argument] when the modes
    differ. *)

type snapshot = {
  s_n : int;
  s_mean : float;  (** exact in both modes *)
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : float;  (** exact in both modes *)
}

val snapshot : t -> snapshot option
(** [None] when no samples were observed. *)
