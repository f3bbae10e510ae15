(* Rendering of Probe collector snapshots: the per-phase step/RMR table
   printed by [rtas_cli trace]/[rtas_cli profile], and a JSON form for
   scripting (its bytes are pinned in test_obs and test_cli). Lives
   here rather than in lib/obs because the distribution summaries come
   from {!Sim.Stats}, which obs (below sim in the dependency order)
   cannot see. *)

let pct x total =
  if total = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int total

let pp_profile ppf (sn : Obs.Collector.snapshot) =
  Fmt.pf ppf "%-16s %9s %11s %6s %11s %6s %8s %8s %9s@." "phase" "calls"
    "steps" "stp%" "rmrs" "rmr%" "steps/c" "p95" "unclosed";
  List.iter
    (fun (ps : Obs.Collector.phase_snapshot) ->
      let mean, p95 =
        if Array.length ps.ps_step_samples = 0 then (0.0, 0.0)
        else
          let s = Sim.Stats.summarize_sorted ps.ps_step_samples in
          (s.Sim.Stats.mean, s.Sim.Stats.p95)
      in
      Fmt.pf ppf "%-16s %9d %11d %5.1f%% %11d %5.1f%% %8.2f %8.1f %9d@."
        ps.ps_phase ps.ps_calls ps.ps_steps
        (pct ps.ps_steps sn.Obs.Collector.sn_steps)
        ps.ps_rmrs
        (pct ps.ps_rmrs sn.Obs.Collector.sn_rmrs)
        mean p95 ps.ps_unclosed)
    sn.Obs.Collector.sn_phases;
  Fmt.pf ppf "%-16s %9s %11d %6s %11d@." "total" "" sn.Obs.Collector.sn_steps
    "" sn.Obs.Collector.sn_rmrs;
  Fmt.pf ppf "flips=%d finishes=%d crashes=%d span_errors=%d@."
    sn.Obs.Collector.sn_flips sn.Obs.Collector.sn_finishes
    sn.Obs.Collector.sn_crashes sn.Obs.Collector.sn_span_errors

(* {1 JSON} *)

let phase_json (ps : Obs.Collector.phase_snapshot) =
  let mean, stddev, median, p95 =
    if Array.length ps.ps_step_samples = 0 then (0.0, 0.0, 0.0, 0.0)
    else
      let s = Sim.Stats.summarize_sorted ps.ps_step_samples in
      (s.Sim.Stats.mean, s.Sim.Stats.stddev, s.Sim.Stats.median, s.Sim.Stats.p95)
  in
  let rmr_mean =
    if Array.length ps.ps_rmr_samples = 0 then 0.0
    else Sim.Stats.mean_array ps.ps_rmr_samples
  in
  Printf.sprintf
    "{\"phase\":\"%s\",\"calls\":%d,\"unclosed\":%d,\"steps\":%d,\"rmrs\":%d,\"writes\":%d,\"invalidated\":%d,\"steps_per_call\":{\"mean\":%.6g,\"stddev\":%.6g,\"median\":%.6g,\"p95\":%.6g},\"rmrs_per_call_mean\":%.6g}"
    (Obs.Json.escape ps.ps_phase) ps.ps_calls ps.ps_unclosed ps.ps_steps
    ps.ps_rmrs ps.ps_writes ps.ps_invalidations mean stddev median p95 rmr_mean

let snapshot_to_json ~winners (sn : Obs.Collector.snapshot) =
  Printf.sprintf
    "{\"phases\":[%s],\"totals\":{\"steps\":%d,\"rmrs\":%d,\"flips\":%d,\"crashes\":%d,\"finishes\":%d,\"span_errors\":%d},\"counters\":{\"winners\":%d}}"
    (String.concat "," (List.map phase_json sn.Obs.Collector.sn_phases))
    sn.Obs.Collector.sn_steps sn.Obs.Collector.sn_rmrs
    sn.Obs.Collector.sn_flips sn.Obs.Collector.sn_crashes
    sn.Obs.Collector.sn_finishes sn.Obs.Collector.sn_span_errors winners
