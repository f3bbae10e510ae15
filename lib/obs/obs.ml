(* Probe, the observability layer: tracing sinks, per-phase
   attribution and Perfetto export.

   [include Probe] makes the phase annotation points available as
   [Obs.enter]/[Obs.leave]/[Obs.span] directly, which is how algorithm
   code spells them. *)

module Logbucket = Logbucket
module Timeseries = Timeseries
module Probe = Probe
module Collector = Collector
module Chrome_trace = Chrome_trace
include Probe
