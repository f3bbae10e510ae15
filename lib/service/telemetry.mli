(** Service-engine telemetry: the windowed [Obs.Timeseries] schema the
    drivers record into, and its export plumbing.

    The drivers take a {!sink} (a request plus a result slot). Without
    one, reports are byte-identical (pinned by test); with one, each
    shard or worker's {!Tally} records into its own {!recorder}
    (single-domain mutable state) and the driver stores the
    associatively merged snapshot into the sink on the way out.

    Window units are whatever clock the driver runs on: virtual ticks
    for [Driver], wall-clock microseconds for [Mc_driver]. The series
    schema is shared (counter names mirror the report's [counts]
    fields); each driver records the subset it can observe. *)

type sink = {
  window : float;  (** Window width, in driver clock units. *)
  trace : bool;  (** Also build a Perfetto trace (sim driver, 1 shard). *)
  mutable snapshot : Obs.Timeseries.snapshot;
      (** Filled by the driver: the merged cross-shard time-series. *)
  mutable trace_json : string option;
      (** Filled when [trace] was requested and supported. *)
}

val sink : ?trace:bool -> window:float -> unit -> sink
(** Raises [Invalid_argument] unless [window > 0]. *)

(** {1 The recorder (driver-internal)} *)

type recorder = {
  ts : Obs.Timeseries.t;
  arrivals : Obs.Timeseries.counter;
  completions : Obs.Timeseries.counter;
  sheds : Obs.Timeseries.counter;
  retries : Obs.Timeseries.counter;
  deadline_miss : Obs.Timeseries.counter;
  crashes : Obs.Timeseries.counter;
  holder_crashes : Obs.Timeseries.counter;
  recoveries : Obs.Timeseries.counter;
  stale_wins : Obs.Timeseries.counter;
  rounds : Obs.Timeseries.counter;
  round_steps : Obs.Timeseries.quantile;
  round_rmrs : Obs.Timeseries.quantile;
  round_flips : Obs.Timeseries.quantile;
  latency : Obs.Timeseries.quantile;
  lag : Obs.Timeseries.quantile;
  wheel_live : Obs.Timeseries.gauge;
  wheel_pool_hw : Obs.Timeseries.gauge;
  wheel_slots : Obs.Timeseries.gauge;
  client_slots : Obs.Timeseries.gauge;
}
(** Every handle of the schema, resolved once at creation so the
    recording hot path never touches the name table. *)

val recorder : window:float -> unit -> recorder

(** {1 Consistency against the final report} *)

val counter_mismatches :
  Obs.Timeseries.snapshot -> Report.t -> (string * int * int) list
(** [(series, windowed_sum, report_total)] for every counter series
    present in the snapshot whose cross-window sum disagrees with the
    corresponding report total — empty on a consistent run. *)
