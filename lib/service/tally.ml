(* The one tally both service drivers count into. Each outcome is a
   slot in [n]; [bump] adds to the slot and, with a sink attached, to
   the outcome's Telemetry counter, so a report total and its windowed
   series are written by the same call and cannot drift apart.
   Completions are the latency samples, so [Histo.count] counts them.

   Every part merges associatively (slot sums, Histo.merge_into, max of
   [last], Timeseries.merge), which is what lets per-shard and
   per-worker tallies fold into one report in any grouping. *)

module TS = Obs.Timeseries

type outcome =
  | Arrived
  | Deadline
  | Crashed
  | Holder_crashed
  | Shed
  | Retried
  | Stale_win
  | Recovered
  | Round

let slot = function
  | Arrived -> 0
  | Deadline -> 1
  | Crashed -> 2
  | Holder_crashed -> 3
  | Shed -> 4
  | Retried -> 5
  | Stale_win -> 6
  | Recovered -> 7
  | Round -> 8

let counter (r : Telemetry.recorder) = function
  | Arrived -> r.arrivals
  | Deadline -> r.deadline_miss
  | Crashed -> r.crashes
  | Holder_crashed -> r.holder_crashes
  | Shed -> r.sheds
  | Retried -> r.retries
  | Stale_win -> r.stale_wins
  | Recovered -> r.recoveries
  | Round -> r.rounds

type t = {
  n : int array;
  hist : Histo.t;
  mutable last : float;
  tel : Telemetry.recorder option;
  mutable merged : TS.snapshot;  (* telemetry folded in by [merge_into] *)
}

let create ?sink mode =
  {
    n = Array.make (slot Round + 1) 0;
    hist = Histo.create mode;
    last = 0.0;
    tel =
      Option.map
        (fun s -> Telemetry.recorder ~window:s.Telemetry.window ())
        sink;
    merged = TS.empty_snapshot;
  }

let bump t o ~at =
  let i = slot o in
  t.n.(i) <- t.n.(i) + 1;
  match t.tel with
  | None -> ()
  | Some r ->
      TS.bump (counter r o) ~at;
      (* A crashed holder is also a crashed client. *)
      if o = Holder_crashed then TS.bump r.crashes ~at

let complete t ~at latency =
  Histo.observe t.hist latency;
  match t.tel with
  | None -> ()
  | Some r ->
      TS.bump r.completions ~at;
      TS.observe r.latency ~at latency

let record t f at = match t.tel with None -> () | Some r -> f r at
let touch t at = if at > t.last then t.last <- at
let last t = t.last

let snapshot t =
  match t.tel with
  | None -> t.merged
  | Some r -> TS.merge t.merged (TS.snapshot r.ts)

let merge_into ~into src =
  Array.iteri (fun i c -> into.n.(i) <- into.n.(i) + c) src.n;
  Histo.merge_into ~into:into.hist src.hist;
  touch into src.last;
  into.merged <- TS.merge into.merged (snapshot src)

let counts t ~clients =
  let n o = t.n.(slot o) in
  {
    Report.clients;
    completed = Histo.count t.hist;
    deadline_exceeded = n Deadline;
    crashed_clients = n Crashed + n Holder_crashed;
    holder_crashes = n Holder_crashed;
    forced_expiries = n Recovered;
    shed = n Shed;
    retries = n Retried;
    rounds = n Round;
    stale_wins = n Stale_win;
  }

let latency t = Report.latency_of_histo t.hist
