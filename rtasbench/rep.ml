(* One repetition, run inside its own process: set up, time the call,
   check the outputs, and report one JSON object.

   A plain rep reports the end-to-end quantities. A traced rep runs the
   same work with spans around the benchmark's calls into each layer (a
   telemetry sink for the service workloads), adds the per-layer
   metrics, and writes the spans as a Perfetto trace. *)

module W = Workloads
module L = Layers

(* Peak major heap of this process. The runtime folds a domain's heap
   counters into [Gc.quick_stat] at minor collections, so one is forced
   first: a short run may not have had any. *)
let heap_mb () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type timed = {
  ready_ns : int;  (** clock reading when set-up ended *)
  setup_s : float;  (** in-process set-up time *)
  wall_s : float;  (** the timed call *)
  items : int;  (** trials or clients *)
  served : int;  (** trials with one winner, or completed clients *)
  p50 : float;
  p999 : float;
  heap : float;
  digest : string;
  failures : string list;
  layers : (string * Json.t) list;  (** traced reps only *)
}

let num x = Json.Num x
let numi x = Json.Num (float_of_int x)
let drill_scale ~quick = if quick then 0.01 else 1.0

let layers_json ~metrics ~rows ~frontier ~wall_s =
  let modelled = List.fold_left (fun a r -> a +. L.row_s r) 0.0 rows in
  let row_json (r : L.row) =
    Json.Obj
      [
        ("layer", Json.Str r.L.layer);
        ("count", num r.L.count);
        ("unit_ns", num r.L.unit_ns);
      ]
  in
  let frontier_json (f : L.frontier) =
    Json.Obj
      [
        ("entry", Json.Str f.L.f_entry);
        ("registers", numi f.L.f_registers);
        ("steps", Json.Arr (Array.to_list (Array.map num f.L.f_steps)));
        ("ns_per_step", num f.L.f_ns_per_step);
      ]
  in
  [
    ( "metrics",
      Json.Obj
        (List.map
           (fun (k, v) -> (k, num v))
           (metrics @ [ ("driver.residual_frac", (wall_s -. modelled) /. wall_s) ])) );
    ("rows", Json.Arr (List.map row_json rows));
    ("frontier", Json.Arr (List.map frontier_json frontier));
  ]

let run_trials_rep ~quick ~trace ~spans ~seed =
  let t0 = Spans.now_ns () in
  let batches =
    Spans.span spans ~name:"setup" ~tid:0 (fun () -> W.build_batches ~quick)
  in
  let ready_ns = Spans.now_ns () in
  let tr = if trace then Some (W.trials_trace spans batches) else None in
  let out, _ = W.run_trials ?trace:tr batches ~seed in
  let t_end = Spans.now_ns () in
  let heap = heap_mb () in
  let failures =
    Spans.span spans ~name:"check" ~tid:0 (fun () -> W.check_trials batches ~seed out)
  in
  let s = Sim.Stats.summarize_array (Array.map float_of_int out.W.ticks) in
  let wall_s = float_of_int (t_end - ready_ns) *. 1e-9 in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        List.iteri
          (fun bi (b : W.batch) ->
            Spans.name_track spans ~tid:bi b.W.entry.Rtas.Registry.name)
          batches;
        Spans.name_track spans ~tid:100 "drills";
        let metrics, rows, frontier = L.election_layers batches tr out in
        (* No service runs here: the service drills take the default
           service config's shape and every service count is 0. *)
        let service, _ =
          L.service_layers ~spans ~scale:(drill_scale ~quick) ~wall_s
            (Service.Driver.default ~algorithm:"tournament")
            L.no_service
        in
        layers_json ~metrics:(metrics @ service) ~rows ~frontier ~wall_s
  in
  {
    ready_ns;
    setup_s = float_of_int (ready_ns - t0) *. 1e-9;
    wall_s;
    items = Array.length out.W.winner;
    served = Array.fold_left (fun a w -> if w >= 0 then a + 1 else a) 0 out.W.winner;
    p50 = s.Sim.Stats.median;
    p999 = s.Sim.Stats.p999;
    heap;
    digest = W.digest_outcomes out;
    failures;
    layers;
  }

(* The election layers do not depend on the service: a traced service
   rep measures them on a 1% trial batch. *)
let election_drill ~spans ~seed =
  Spans.span spans ~name:"drill:elections" ~tid:100 (fun () ->
      let batches = W.build_batches ~quick:true in
      let tr = W.trials_trace spans batches in
      let out, _ = W.run_trials ~trace:tr batches ~seed in
      let metrics, _, frontier = L.election_layers batches tr out in
      (metrics, frontier))

let run_service_rep ~quick ~trace ~elections ~checks ~spans ~name (svc : W.service)
    ~seed =
  let t0 = Spans.now_ns () in
  let cfg = svc.W.config ~quick ~seed in
  Spans.span spans ~name:"setup" ~tid:0 (fun () ->
      Service.Driver.validate cfg;
      let one = { cfg with Service.Driver.clients = 1 } in
      ignore (Service.Driver.run one : Service.Report.t));
  (* A traced rep always carries a telemetry sink: it is where the
     counts inside Driver.run come from. *)
  let window =
    if trace then Some (Option.value svc.W.window ~default:1000.0) else svc.W.window
  in
  let sink = Option.map (fun window -> Service.Telemetry.sink ~window ()) window in
  let ready_ns = Spans.now_ns () in
  let r =
    Spans.span spans ~name:"Service.Driver.run" ~tid:0 (fun () ->
        Service.Driver.run ?telemetry:sink cfg)
  in
  let t_end = Spans.now_ns () in
  let heap = heap_mb () in
  let wall_s = float_of_int (t_end - ready_ns) *. 1e-9 in
  let failures =
    W.check_report cfg r
    @ (match sink with
      | None -> []
      | Some s ->
          List.map
            (fun (series, sum, total) ->
              Printf.sprintf "telemetry %s sums to %d, report says %d" series sum total)
            (Service.Telemetry.counter_mismatches s.Service.Telemetry.snapshot r))
    @
    match svc.W.differential ~quick ~seed with
    | Some (what, a, b) when checks ->
        Spans.span spans ~name:("check:" ^ what) ~tid:0 (fun () ->
            let report c = Service.Report.to_json (Service.Driver.run c) in
            if report a = report b then [] else [ what ^ ": reports differ" ])
    | _ -> []
  in
  let c = r.Service.Report.counts in
  let p50, p999 =
    match r.Service.Report.latency with
    | Some l -> (l.Service.Report.l_p50, l.Service.Report.l_p999)
    | None -> (0.0, 0.0)
  in
  let layers =
    match sink with
    | Some s when trace ->
        Spans.name_track spans ~tid:0 name;
        Spans.name_track spans ~tid:100 "drills";
        let metrics, rows =
          L.service_layers ~spans ~scale:(drill_scale ~quick) ~wall_s cfg
            (L.counts_of s.Service.Telemetry.snapshot r)
        in
        (* The service run's heap is garbage now; the election drill
           builds its own arenas. *)
        Gc.compact ();
        let elections, frontier =
          if elections then election_drill ~spans ~seed else ([], [])
        in
        layers_json ~metrics:(metrics @ elections) ~rows ~frontier ~wall_s
    | _ -> []
  in
  {
    ready_ns;
    setup_s = float_of_int (ready_ns - t0) *. 1e-9;
    wall_s;
    items = c.Service.Report.clients;
    served = c.Service.Report.completed;
    p50;
    p999;
    heap;
    digest = Digest.to_hex (Digest.string (Service.Report.to_json r));
    failures;
    layers;
  }

(* Run one rep of [w] and return its JSON report. [trace_file], when
   given, receives the Perfetto trace of a traced rep. *)
let run ~quick ~trace ~checks ~elections ?trace_file (w : W.t) ~seed =
  let spans = Spans.create () in
  let seed = W.seed_of w seed in
  let t =
    match w.W.kind with
    | W.Trials -> run_trials_rep ~quick ~trace ~spans ~seed
    | W.Service svc ->
        run_service_rep ~quick ~trace ~elections ~checks ~spans ~name:w.W.name svc ~seed
  in
  (match trace_file with Some path when trace -> Spans.write spans path | _ -> ());
  Json.Obj
    ([
       ("workload", Json.Str w.W.name);
       ("ready_ns", numi t.ready_ns);
       ("setup_inproc_s", num t.setup_s);
       ("wall_s", num t.wall_s);
       ("items", numi t.items);
       ("served", numi t.served);
       ("p50_ticks", num t.p50);
       ("p999_ticks", num t.p999);
       ("heap_mb", num t.heap);
       ("digest", Json.Str t.digest);
       ("failures", Json.Arr (List.map (fun s -> Json.Str s) t.failures));
     ]
    @ t.layers)
