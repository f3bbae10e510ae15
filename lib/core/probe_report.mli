(** Rendering of Probe collector snapshots: the per-phase step/RMR
    table behind [rtas_cli trace]/[rtas_cli profile], and a JSON form
    for scripting. Distribution columns use {!Sim.Stats} on the
    snapshot's per-span samples (already sorted, so summaries skip the
    sort). *)

val pp_profile : Obs.Collector.snapshot Fmt.t
(** Per-phase table (calls, steps, RMRs, share of totals, steps/call
    mean and p95, unclosed spans), then totals. *)

val snapshot_to_json : winners:int -> Obs.Collector.snapshot -> string
(** One JSON object: [{"phases": [...], "totals": {...},
    "counters": {"winners": ...}}], [winners] being the number of
    elections' winners the snapshot's trials produced. *)
