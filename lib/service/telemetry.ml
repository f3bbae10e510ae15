(* Telemetry schema and sink for the service drivers. See the mli for
   the model; the counter names deliberately mirror the report's
   [counts] fields ([service.<field>]), so the windowed sums line up
   with the end-of-run totals by construction (and [counter_mismatches]
   checks that they do). *)

module TS = Obs.Timeseries
module LB = Sim.Stats.Logbucket

let logbucket =
  {
    TS.b_name = "logbucket32";
    b_count = LB.count;
    b_of_value = LB.of_value;
    b_midpoint = LB.midpoint;
  }

type sink = {
  window : float;
  trace : bool;
  mutable snapshot : TS.snapshot;
  mutable trace_json : string option;
}

let sink ?(trace = false) ~window () =
  if not (window > 0.0) then invalid_arg "Telemetry.sink: window must be > 0";
  { window; trace; snapshot = TS.empty_snapshot; trace_json = None }

type recorder = {
  ts : TS.t;
  arrivals : TS.counter;
  completions : TS.counter;
  sheds : TS.counter;
  retries : TS.counter;
  deadline_miss : TS.counter;
  crashes : TS.counter;
  holder_crashes : TS.counter;
  recoveries : TS.counter;
  stale_wins : TS.counter;
  rounds : TS.counter;
  round_steps : TS.quantile;
  round_rmrs : TS.quantile;
  round_flips : TS.quantile;
  latency : TS.quantile;
  lag : TS.quantile;
  wheel_live : TS.gauge;
  wheel_pool_hw : TS.gauge;
  wheel_slots : TS.gauge;
}

let recorder ~window () =
  let ts = TS.create ~window () in
  {
    ts;
    arrivals = TS.counter ts "service.arrivals";
    completions = TS.counter ts "service.completed";
    sheds = TS.counter ts "service.shed";
    retries = TS.counter ts "service.retries";
    deadline_miss = TS.counter ts "service.deadline_exceeded";
    crashes = TS.counter ts "service.crashed_clients";
    holder_crashes = TS.counter ts "service.holder_crashes";
    recoveries = TS.counter ts "service.forced_expiries";
    stale_wins = TS.counter ts "service.stale_wins";
    rounds = TS.counter ts "service.rounds";
    round_steps = TS.quantile ts logbucket "service.round_steps";
    round_rmrs = TS.quantile ts logbucket "service.round_rmrs";
    round_flips = TS.quantile ts logbucket "service.round_flips";
    latency = TS.quantile ts logbucket "service.latency_ticks";
    lag = TS.quantile ts logbucket "service.loop_lag_ticks";
    wheel_live = TS.gauge ts "service.wheel_live";
    wheel_pool_hw = TS.gauge ts "service.wheel_pool_hw";
    wheel_slots = TS.gauge ts "service.wheel_slots";
  }

(* Which report total each counter series must sum to. [arrivals] is
   every client's first service contact, so it sums to the client
   count on any run that drains its schedule. *)
let totals (t : Report.t) =
  let c = t.Report.counts in
  [
    ("service.arrivals", c.Report.clients);
    ("service.completed", c.Report.completed);
    ("service.deadline_exceeded", c.Report.deadline_exceeded);
    ("service.crashed_clients", c.Report.crashed_clients);
    ("service.holder_crashes", c.Report.holder_crashes);
    ("service.forced_expiries", c.Report.forced_expiries);
    ("service.shed", c.Report.shed);
    ("service.retries", c.Report.retries);
    ("service.stale_wins", c.Report.stale_wins);
    ("service.rounds", c.Report.rounds);
  ]

let counter_mismatches snap report =
  let expected = totals report in
  List.filter_map
    (fun (name, _cells) ->
      match List.assoc_opt name expected with
      | None -> None
      | Some total ->
          let sum = TS.counter_sum snap name in
          if sum = total then None else Some (name, sum, total))
    snap.TS.s_counters
