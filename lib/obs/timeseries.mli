(** Windowed time-series recorder: the time axis for Probe.

    A recorder buckets observations into fixed-width windows of a
    virtual or wall clock (window index = [floor (at / window)]) and
    holds, per named series, one cell per window. Three series kinds:

    - {e counters}: monotone per-window event counts (sums across
      windows equal run totals);
    - {e gauges}: last-write-wins samples of an instantaneous level
      (queue depth, pool high-water);
    - {e quantiles}: one {!Logbucket} histogram per window, so
      percentiles can be read per window without storing samples.

    Storage discipline mirrors the flat kernel: per-series cells live in
    growable arrays indexed by window, doubling on demand, so the
    steady state inside a window allocates nothing (a quantile window's
    bucket counts grow, also by doubling, to the largest bucket it has
    seen). A recorder is single-domain mutable state; cross-shard and
    cross-domain aggregation goes through immutable {!snapshot} values
    and the associative {!merge}, keyed by window index — exactly the
    {!Collector} discipline with a time axis added. *)

type t

type counter
type gauge
type quantile

val create : window:float -> unit -> t
(** [create ~window ()] makes an empty recorder with the given window
    width (in clock units; must be [> 0]). *)

val window : t -> float

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] on a kind clash. *)

val gauge : t -> string -> gauge
val quantile : t -> string -> quantile

val bump : counter -> at:float -> unit
val add : counter -> at:float -> int -> unit
val set : gauge -> at:float -> float -> unit
val observe : quantile -> at:float -> float -> unit

(** {1 Snapshots and aggregation} *)

type qwindow = {
  qw_win : int;
  qw_n : int;  (** [qw_n], [qw_sum] and [qw_max] are [qw_hist]'s. *)
  qw_sum : float;
  qw_max : float;
  qw_hist : Logbucket.t;  (** The window's own; never mutated. *)
}

type qseries = { qs_windows : qwindow list  (** Ascending [qw_win]; n > 0. *) }

type snapshot = {
  s_window : float;
  s_counters : (string * (int * int) list) list;
      (** Name-sorted; per-series (window, count) pairs ascending, only
          nonzero windows. *)
  s_gauges : (string * (int * float) list) list;
      (** Only windows the gauge was actually set in. *)
  s_quantiles : (string * qseries) list;
}

val empty_snapshot : snapshot
(** The identity of {!merge} (window width 0 acts as a wildcard). *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Keyed by window index: counters sum and quantile windows merge
    ({!Logbucket.merge_into}) pointwise; gauges take the right-hand
    value where both sides set the same window (last write in merge
    order). Associative, with {!empty_snapshot} as identity; commutative
    except for overlapping gauge windows. Raises [Invalid_argument] on a
    window-width mismatch. *)

val windows : snapshot -> int
(** [1 + ] the largest window index present in any series (0 when the
    snapshot is empty). *)

val counter_sum : snapshot -> string -> int
(** Sum of a counter series across all windows; 0 if absent. *)

(** {1 Export} *)

val to_json : snapshot -> string
(** Deterministic JSON dump: schema ["rtas-timeseries/1"], counters and
    gauges as [[window, value]] pair lists, quantile windows as
    [{window, n, mean, p50, p90, p99, max}] summaries under the scheme
    tag ["logbucket32"]. *)

val to_openmetrics : snapshot -> string
(** OpenMetrics-style text exposition: one metric per series (names
    sanitized to [a-zA-Z0-9_:] and prefixed [rtas_]), one sample per
    window carrying a [window="i"] label; quantile series render as
    summaries. Ends with [# EOF]. *)

val to_chrome : snapshot -> Chrome_trace.t -> unit
(** Emit one Perfetto counter track (["ph":"C"]) per counter and gauge
    series, plus [p50]/[p99] tracks per quantile series, with one event
    per present window at the window-start timestamp (window index
    times width, in trace microseconds). *)

val pp : snapshot Fmt.t
(** Render the per-window table: one row per window, one column per
    counter (common dotted prefix stripped), plus [n/p50/p99] columns
    per quantile series. *)
