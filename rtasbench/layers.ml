(* Per-layer metrics for the traced rep.

   Counts come from the traced run itself: span accumulators around the
   benchmark's calls into the election kernels, and the public
   Service.Telemetry sink for what happens inside Service.Driver.run.
   Unit costs of the service layers come from drills: short timed loops
   over one layer's public API, shaped like the workload's config. A
   layer's modelled time is its count times its unit cost; what the
   modelled layers leave of the wall time is the residual. *)

module W = Workloads
module D = Service.Driver
module TS = Obs.Timeseries

type row = { layer : string; count : float; unit_ns : float }

let row_s r = r.count *. r.unit_ns *. 1e-9

(* {1 The metric catalogue}

   Every per-layer metric, with its unit, the direction an optimisation
   moves it, and the (workload, end-to-end metric) pairs it should move.
   BENCHMARK.json declares each metric's name, unit and direction only;
   the targets live here, and the selftest checks that each one names a
   declared workload and end-to-end metric. The flat / effect split
   follows the registry: an entry with a flat compilation reports per-k
   round costs, the others report effect-simulator step and reset
   costs. *)

type metric = {
  name : string;
  unit : string;
  better : string;
  moves : (string * string) list;  (** (workload, end-to-end metric) *)
}

let has_flat (e : Rtas.Registry.entry) = e.Rtas.Registry.make_flat <> None

let catalogue () =
  let metric name unit moves = { name; unit; better = "lower"; moves } in
  let trials = [ ("trials", "items_per_s") ] in
  let zipf = [ ("svc-zipf", "items_per_s") ] in
  let scale = [ ("svc-scale", "items_per_s") ] in
  let flat = List.filter has_flat Rtas.Registry.all
  and effect = List.filter (fun e -> not (has_flat e)) Rtas.Registry.all in
  (* Service rounds run the tournament's flat program, and a round's
     length in ticks is its step count. *)
  let per_k what unit e =
    let moves =
      if e.Rtas.Registry.name = "tournament" then
        trials @ zipf @ [ ("svc-zipf", "p50_ticks") ]
      else trials
    in
    Array.to_list
      (Array.map
         (fun k -> metric (Printf.sprintf "flatsim.%s.%s.k%d" (W.metric_name e) what k) unit moves)
         W.ks)
  in
  let sim e =
    let m = W.metric_name e in
    [
      metric ("sim." ^ m ^ ".ns_per_step") "ns" trials;
      metric ("sim." ^ m ^ ".reset_ns") "ns" trials;
      metric ("sim." ^ m ^ ".steps_per_trial") "steps" trials;
    ]
  in
  [
    metric "engine.ns_per_trial" "ns" trials;
    metric "engine.minor_words_per_trial" "words" trials;
  ]
  @ List.concat_map (per_k "ns_per_round" "ns") flat
  @ List.concat_map (per_k "steps_per_round" "steps") flat
  @ List.concat_map sim effect
  @ List.map
      (fun e ->
        metric
          ("space." ^ W.metric_name e ^ ".registers")
          "count"
          [ ("trials", "setup_s"); ("trials", "heap_mb") ])
      Rtas.Registry.all
  @
  let wheel = [ ("svc-overload", "items_per_s"); ("svc-scale", "items_per_s") ] in
  [
    metric "wheel.events" "count" wheel;
    metric "wheel.ns_per_event" "ns" wheel;
    metric "wheel.high_water" "count" [ ("svc-scale", "heap_mb") ];
    metric "flatsim.rounds" "count" zipf;
    metric "flatsim.round_steps" "steps" (zipf @ [ ("svc-zipf", "p50_ticks") ]);
    metric "flatsim.service_share" "fraction" zipf;
    metric "backoff.ns_per_delay" "ns" [ ("svc-overload", "items_per_s") ];
    metric "backoff.calls" "count" [ ("svc-overload", "items_per_s") ];
    metric "schedule.ns_per_client" "ns" scale;
    metric "histo.ns_per_observe" "ns" scale;
    metric "histo.merge_us" "us" scale;
    metric "telemetry.ns_per_record" "ns" scale;
    metric "telemetry.records" "count" scale;
    metric "resettable.ns_per_cycle" "ns" zipf;
    metric "driver.residual_frac" "fraction" (zipf @ wheel);
    (* The cost of the benchmark's own tracing, not of a layer: no
       untraced metric moves with it. *)
    metric "trace.overhead_frac" "fraction" [];
  ]

(* {1 The election layers, from a traced trial batch} *)

type frontier = {
  f_entry : string;
  f_registers : int;
  f_steps : float array;  (** mean steps per trial at each k *)
  f_ns_per_step : float;
}

let election_layers batches (tr : W.trials_trace) (out : W.outcomes) =
  let metrics = ref [] and rows = ref [] and frontier = ref [] in
  let add name v = metrics := (name, v) :: !metrics in
  let trials = ref 0 and engine_self = ref 0 and minor = ref 0.0 and off = ref 0 in
  List.iteri
    (fun bi (b : W.batch) ->
      let e = b.W.entry in
      let m = W.metric_name e in
      let ticks = Array.make W.nk 0 and reset = ref 0 and run = ref 0 in
      for kidx = 0 to W.nk - 1 do
        let s = W.slot bi kidx in
        for t = 0 to b.W.count - 1 do
          ticks.(kidx) <- ticks.(kidx) + out.W.ticks.(!off + t)
        done;
        off := !off + b.W.count;
        reset := !reset + tr.W.reset_ns.(s);
        run := !run + tr.W.run_ns.(s);
        engine_self :=
          !engine_self + tr.W.engine_ns.(s) - tr.W.reset_ns.(s) - tr.W.run_ns.(s);
        minor := !minor +. tr.W.minor_words.(s);
        if has_flat e then begin
          let c = float_of_int b.W.count in
          add
            (Printf.sprintf "flatsim.%s.ns_per_round.k%d" m W.ks.(kidx))
            (float_of_int (tr.W.reset_ns.(s) + tr.W.run_ns.(s)) /. c);
          add
            (Printf.sprintf "flatsim.%s.steps_per_round.k%d" m W.ks.(kidx))
            (float_of_int ticks.(kidx) /. c)
        end
      done;
      let n_trials = b.W.count * W.nk in
      trials := !trials + n_trials;
      let all_ticks = float_of_int (Array.fold_left ( + ) 0 ticks) in
      let per_trial x = float_of_int x /. float_of_int n_trials in
      if not (has_flat e) then begin
        add ("sim." ^ m ^ ".ns_per_step") (float_of_int !run /. all_ticks);
        add ("sim." ^ m ^ ".reset_ns") (per_trial !reset);
        add ("sim." ^ m ^ ".steps_per_trial") (all_ticks /. float_of_int n_trials)
      end;
      add ("space." ^ m ^ ".registers") (float_of_int b.W.registers);
      rows :=
        {
          layer = (if has_flat e then "flatsim." else "sim.") ^ m;
          count = float_of_int n_trials;
          unit_ns = per_trial (!reset + !run);
        }
        :: !rows;
      frontier :=
        {
          f_entry = e.Rtas.Registry.name;
          f_registers = b.W.registers;
          f_steps = Array.map (fun t -> float_of_int t /. float_of_int b.W.count) ticks;
          f_ns_per_step = float_of_int !run /. all_ticks;
        }
        :: !frontier)
    batches;
  let per_trial x = x /. float_of_int !trials in
  add "engine.ns_per_trial" (per_trial (float_of_int !engine_self));
  add "engine.minor_words_per_trial" (per_trial !minor);
  (List.rev !metrics, List.rev !rows, List.rev !frontier)

(* {1 Drills} *)

(* [per_op ~iters f]: nanoseconds per operation of [f iters] (which runs
   [iters] operations), the median of five timed runs. *)
let per_op ~iters f =
  (Sim.Stats.summarize_array
     (Array.init 5 (fun _ ->
          let t0 = Spans.now_ns () in
          f iters;
          float_of_int (Spans.now_ns () - t0) /. float_of_int iters)))
    .Sim.Stats.median

(* Drilled results feed this sink so the loops cannot be dropped. *)
let sink = ref 0.0

(* Retry delays drawn from the workload's own backoff policy. *)
let delays (cfg : D.config) =
  Array.init 4096 (fun i ->
      Service.Backoff.delay cfg.D.backoff ~seed:cfg.D.seed ~client:i
        ~attempt:(1 + (i mod 8)))

(* The wheel at a steady [level] of live events, each popped event
   rescheduled one backoff delay later: one pop plus one schedule per
   event. *)
let wheel_drill ~iters ~level cfg =
  let open Service.Wheel in
  let ds = delays cfg in
  let mask = Array.length ds - 1 in
  let w = create ~capacity:(level + 16) () in
  let kseq = ref 0 in
  let next_kseq () =
    let s = !kseq in
    kseq := s + 1;
    s
  in
  for i = 0 to level - 1 do
    schedule w ~at:ds.(i land mask) ~key:(i land 1023) ~kseq:(next_kseq ()) ~kind:1
      ~a:i ~b:0
  done;
  let i = ref 0 in
  per_op ~iters (fun iters ->
      for _ = 1 to iters do
        let id = pop w in
        let at = w.ev_at.(id) and ord = w.ev_ord.(id) in
        incr i;
        schedule w
          ~at:(at +. ds.(!i land mask))
          ~key:(key_of_ord ord) ~kseq:(next_kseq ()) ~kind:1 ~a:(!i land max_ab) ~b:0
      done)

let backoff_drill ~iters (cfg : D.config) =
  per_op ~iters (fun iters ->
      let acc = ref 0.0 in
      for i = 1 to iters do
        acc :=
          !acc
          +. Service.Backoff.delay cfg.D.backoff ~seed:cfg.D.seed ~client:i
               ~attempt:(1 + (i land 7))
      done;
      sink := !sink +. !acc)

(* The arrival schedule Driver.run generates up front: one arrival time
   and one Zipf key per client. *)
let schedule_drill ~iters (cfg : D.config) =
  let zipf = Service.Zipf.create ~n:cfg.D.keys ~s:cfg.D.zipf_s in
  let arr =
    Service.Arrival.create cfg.D.arrival
      (Sim.Rng.create (Sim.Rng.derive cfg.D.seed ~stream:10))
  in
  let zrng = Sim.Rng.create (Sim.Rng.derive cfg.D.seed ~stream:11) in
  per_op ~iters (fun iters ->
      let acc = ref 0.0 in
      for _ = 1 to iters do
        let key = Service.Zipf.sample zipf zrng in
        acc := !acc +. Service.Arrival.next arr +. float_of_int key
      done;
      sink := !sink +. !acc)

let histo_mode (cfg : D.config) =
  match cfg.D.latency with
  | `Exact -> `Exact
  | `Hist -> `Log
  | `Auto -> if cfg.D.clients <= 65_536 then `Exact else `Log

let latencies = Array.init 4096 (fun i -> 1.0 +. float_of_int (i * 7919 mod 20_000))

let histo_drill ~iters cfg =
  let h = Service.Histo.create (histo_mode cfg) in
  per_op ~iters (fun iters ->
      for i = 1 to iters do
        Service.Histo.observe h latencies.(i land 4095)
      done)

(* One shard partial merged into the run's histogram, with each partial
   holding its share of the completions (capped to keep the drill
   short). Microseconds per merge. *)
let histo_merge_drill ~completions (cfg : D.config) =
  let shards = cfg.D.shards in
  let per = min 100_000 (max 1 (completions / shards)) in
  let parts =
    Array.init shards (fun s ->
        let h = Service.Histo.create (histo_mode cfg) in
        for i = 0 to per - 1 do
          Service.Histo.observe h latencies.((i + s) land 4095)
        done;
        h)
  in
  per_op ~iters:shards (fun _ ->
      let into = Service.Histo.create (histo_mode cfg) in
      Array.iter (fun p -> Service.Histo.merge_into ~into p) parts)
  /. 1000.0

(* A counter bump and a quantile observation per iteration, in
   increasing time: nanoseconds per record. *)
let telemetry_drill ~iters =
  let r = Service.Telemetry.recorder ~window:1000.0 () in
  per_op ~iters (fun iters ->
      for i = 1 to iters do
        let at = float_of_int i *. 0.05 in
        TS.bump r.Service.Telemetry.arrivals ~at;
        TS.observe r.Service.Telemetry.lag ~at (float_of_int (i land 15))
      done)
  /. 2.0

module Unit_election = struct
  type instance = unit

  let fresh ~key:_ ~round:_ = ()
end

module R = Service.Resettable.Make (Unit_election)

(* One claim and one release: the round-stamp CAS pair every completed
   round pays, around an election whose instance costs nothing. *)
let resettable_drill ~iters =
  let r = R.create ~key:0 ~now:0.0 in
  let round = ref 0 in
  per_op ~iters (fun iters ->
      for _ = 1 to iters do
        let rd = !round in
        ignore (R.claim r ~round:rd ~owner:1 ~now:1.0 : bool);
        ignore (R.release r ~round:rd ~owner:1 ~now:2.0 : bool);
        round := rd + 1
      done)

(* Round cost as a + b * steps at the workload's algorithm and
   contenders: rounds at every power-of-two contention up to the
   contender count, least squares over (mean steps, mean ns). *)
let round_fit ~rounds (cfg : D.config) =
  let c = cfg.D.contenders in
  match Rtas.Registry.find cfg.D.algorithm with
  | Some { Rtas.Registry.make_flat = Some mk; _ } ->
      let m = Flatsim.Machine.create ~procs:c (mk ~n:c) in
      let rec powers k acc =
        if k >= c then List.rev (c :: acc) else powers (2 * k) (k :: acc)
      in
      let point k =
        let steps = ref 0 in
        let ns =
          per_op ~iters:rounds (fun iters ->
              for i = 1 to iters do
                let seed = Sim.Rng.derive cfg.D.seed ~stream:i in
                Flatsim.Machine.reset ~seed ~procs:k m;
                Flatsim.Machine.run_random m ~seed:(Sim.Rng.derive seed ~stream:1);
                steps := !steps + Flatsim.Machine.time m
              done)
        in
        (float_of_int !steps /. float_of_int (5 * rounds), ns)
      in
      let points = List.map point (powers 1 []) in
      let np = float_of_int (List.length points) in
      let mean f = List.fold_left (fun a p -> a +. f p) 0.0 points /. np in
      let mx = mean fst and my = mean snd in
      let sxx = mean (fun (x, _) -> (x -. mx) *. (x -. mx))
      and sxy = mean (fun (x, y) -> (x -. mx) *. (y -. my)) in
      let b = if sxx > 0.0 then sxy /. sxx else 0.0 in
      (my -. (b *. mx), b)
  | _ -> (0.0, 0.0)

(* {1 The service layers, from a traced Driver.run} *)

type svc_counts = {
  rounds : float;
  round_steps : float;
  events : float;
  high_water : float;
  live : float;  (** mean live events over the sampled windows *)
  records : float;
  retries : float;
  clients : float;
  completed : float;
}

let no_service =
  {
    rounds = 0.0;
    round_steps = 0.0;
    events = 0.0;
    high_water = 0.0;
    live = 1024.0;
    records = 0.0;
    retries = 0.0;
    clients = 0.0;
    completed = 0.0;
  }

let counts_of (snap : TS.snapshot) (r : Service.Report.t) =
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let quantile name f =
    match List.assoc_opt name snap.TS.s_quantiles with
    | None -> 0.0
    | Some qs -> sum f qs.TS.qs_windows
  in
  let gauge name = Option.value (List.assoc_opt name snap.TS.s_gauges) ~default:[] in
  let live = gauge "service.wheel_live" in
  let records =
    sum (fun (name, _) -> float_of_int (TS.counter_sum snap name)) snap.TS.s_counters
    +. sum
         (fun (_, qs) -> sum (fun w -> float_of_int w.TS.qw_n) qs.TS.qs_windows)
         snap.TS.s_quantiles
    +. sum (fun (_, l) -> float_of_int (List.length l)) snap.TS.s_gauges
  in
  let c = r.Service.Report.counts in
  {
    rounds = float_of_int (TS.counter_sum snap "service.rounds");
    round_steps = quantile "service.round_steps" (fun w -> w.TS.qw_sum);
    events = quantile "service.loop_lag_ticks" (fun w -> float_of_int w.TS.qw_n);
    high_water =
      List.fold_left
        (fun a (_, v) -> Float.max a v)
        0.0
        (gauge "service.wheel_pool_hw");
    live = Float.max 1.0 (sum snd live /. float_of_int (max 1 (List.length live)));
    records;
    retries = float_of_int c.Service.Report.retries;
    clients = float_of_int c.Service.Report.clients;
    completed = float_of_int c.Service.Report.completed;
  }

(* Drills shaped like [cfg], multiplied by the counts of a traced run
   that took [wall_s]: the service metrics and the reconciliation rows.
   [scale] shortens the drills for quick runs. *)
let service_layers ~spans ~scale ~wall_s (cfg : D.config) (k : svc_counts) =
  let iters = max 100 (int_of_float (400_000.0 *. scale)) in
  let drill name f = Spans.span spans ~name:("drill:" ^ name) ~tid:100 f in
  let wheel_ns =
    drill "wheel" (fun () -> wheel_drill ~iters ~level:(int_of_float k.live) cfg)
  in
  let backoff_ns = drill "backoff" (fun () -> backoff_drill ~iters cfg) in
  let schedule_ns = drill "schedule" (fun () -> schedule_drill ~iters cfg) in
  let histo_ns = drill "histo" (fun () -> histo_drill ~iters cfg) in
  let merge_us =
    drill "histo_merge" (fun () ->
        histo_merge_drill ~completions:(int_of_float k.completed) cfg)
  in
  let telemetry_ns = drill "telemetry" (fun () -> telemetry_drill ~iters) in
  let resettable_ns = drill "resettable" (fun () -> resettable_drill ~iters) in
  let a, b = drill "round_fit" (fun () -> round_fit ~rounds:(iters / 200) cfg) in
  let rounds =
    {
      layer = "flatsim rounds";
      count = k.rounds;
      unit_ns = a +. (b *. k.round_steps /. Float.max 1.0 k.rounds);
    }
  in
  let merges = if k.clients > 0.0 then float_of_int cfg.D.shards else 0.0 in
  let metrics =
    [
      ("flatsim.service_share", row_s rounds /. wall_s);
      ("wheel.events", k.events);
      ("wheel.ns_per_event", wheel_ns);
      ("wheel.high_water", k.high_water);
      ("flatsim.rounds", k.rounds);
      ("flatsim.round_steps", k.round_steps);
      ("backoff.ns_per_delay", backoff_ns);
      ("backoff.calls", k.retries);
      ("schedule.ns_per_client", schedule_ns);
      ("histo.ns_per_observe", histo_ns);
      ("histo.merge_us", merge_us);
      ("telemetry.ns_per_record", telemetry_ns);
      ("telemetry.records", k.records);
      ("resettable.ns_per_cycle", resettable_ns);
    ]
  in
  let rows =
    [
      rounds;
      { layer = "wheel events"; count = k.events; unit_ns = wheel_ns };
      { layer = "backoff delays"; count = k.retries; unit_ns = backoff_ns };
      { layer = "schedule clients"; count = k.clients; unit_ns = schedule_ns };
      { layer = "histo observes"; count = k.completed; unit_ns = histo_ns };
      { layer = "histo merges"; count = merges; unit_ns = merge_us *. 1000.0 };
      { layer = "telemetry records"; count = k.records; unit_ns = telemetry_ns };
      { layer = "resettable cycles"; count = k.rounds; unit_ns = resettable_ns };
    ]
  in
  (metrics, rows)
