type config = {
  algorithm : string;
  clients : int;
  keys : int;
  zipf_s : float;
  arrival : Arrival.kind;
  backoff : Backoff.t;
  deadline : float;
  hold : float;
  crash_prob : float;
  workers : int;
  timeout : float;
  seed : int64;
}

let default ~algorithm =
  {
    algorithm;
    clients = 200;
    keys = 8;
    zipf_s = 0.9;
    arrival = Arrival.Poisson { rate = 0.02 };
    backoff = Backoff.Exp { base = 8.0; cap = 512.0 };
    deadline = 20_000.0;
    hold = 64.0;
    crash_prob = 0.0;
    workers = 4;
    timeout = 30.0;
    seed = 1L;
  }

let validate cfg =
  if cfg.clients < 1 then invalid_arg "Mc_driver: clients must be >= 1";
  if cfg.keys < 1 then invalid_arg "Mc_driver: keys must be >= 1";
  if not (Float.is_finite cfg.deadline && cfg.deadline > 0.0) then
    invalid_arg "Mc_driver: deadline must be finite and > 0";
  if not (Float.is_finite cfg.hold && cfg.hold >= 0.0) then
    invalid_arg "Mc_driver: hold must be finite and >= 0";
  if not (Float.is_finite cfg.zipf_s && cfg.zipf_s >= 0.0) then
    invalid_arg "Mc_driver: zipf_s must be finite and >= 0";
  if cfg.workers < 1 then invalid_arg "Mc_driver: workers must be >= 1";
  if not (Float.is_finite cfg.timeout && cfg.timeout > 0.0) then
    invalid_arg "Mc_driver: timeout must be finite and > 0";
  if not (cfg.crash_prob >= 0.0 && cfg.crash_prob <= 1.0) then
    invalid_arg "Mc_driver: crash_prob must be in [0, 1]";
  Arrival.validate cfg.arrival;
  Backoff.validate cfg.backoff

(* Per-worker tallies live in plain int arrays indexed by worker: each
   slot is written by one domain only, and the merge happens after the
   watchdog saw every done-flag (or gave up, in which case the partial
   values only feed the diagnosis, never a balanced report). *)
type tally = {
  t_completed : int array;
  t_deadline : int array;
  t_crashed : int array;
  t_holder : int array;
  t_retries : int array;
  t_stale : int array;
  t_attempts : int array;
  mutable t_latencies : float list array;
}

let sum = Array.fold_left ( + ) 0

module TS = Obs.Timeseries

let run ?metrics ?telemetry cfg =
  validate cfg;
  let entry =
    match Rtas.Registry.find cfg.algorithm with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "Mc_driver: unknown algorithm %S" cfg.algorithm)
  in
  let make_mc =
    match entry.Rtas.Registry.make_mc with
    | Some f -> f
    | None ->
        invalid_arg
          (Printf.sprintf
             "Mc_driver: %S has no Atomic_mem port (dual-backend entries: %s)"
             cfg.algorithm
             (String.concat ", " (Rtas.Registry.dual_names ())))
  in
  let w = cfg.workers in
  (* One tick = one microsecond of wall clock. *)
  let t0 = Unix.gettimeofday () in
  let now_ticks () = (Unix.gettimeofday () -. t0) *. 1e6 in
  let sleep_ticks t = if t > 0.0 then Unix.sleepf (t *. 1e-6) in
  (* The arrival schedule and key choices are drawn exactly like the sim
     driver's (same derive streams), so the two backends face the same
     offered load for the same seed. *)
  let arrivals =
    Arrival.create cfg.arrival
      (Sim.Rng.create (Sim.Rng.derive cfg.seed ~stream:10))
  in
  let zipf = Zipf.create ~n:cfg.keys ~s:cfg.zipf_s in
  let zrng = Sim.Rng.create (Sim.Rng.derive cfg.seed ~stream:11) in
  let arrival_at = Array.make cfg.clients 0.0 in
  let key_of = Array.make cfg.clients 0 in
  for i = 0 to cfg.clients - 1 do
    arrival_at.(i) <- Arrival.next arrivals;
    key_of.(i) <- Zipf.sample zipf zrng
  done;
  (* Election width = worker count: a worker's slot in every one-shot
     instance is its own index, so slots never collide across domains
     and the per-worker round stamp enforces at-most-once per
     instance. *)
  let module E = struct
    type instance = Multicore.Mc_le.t

    let fresh ~key:_ ~round:_ = make_mc ~n:w
  end in
  let module R = Resettable.Make (E) in
  let keys = Array.init cfg.keys (fun k -> R.create ~key:k ~now:0.0) in
  let tally =
    {
      t_completed = Array.make w 0;
      t_deadline = Array.make w 0;
      t_crashed = Array.make w 0;
      t_holder = Array.make w 0;
      t_retries = Array.make w 0;
      t_stale = Array.make w 0;
      t_attempts = Array.make w 0;
      t_latencies = Array.make w [];
    }
  in
  let lease = cfg.deadline in
  (* One telemetry recorder per worker domain (they are single-domain
     mutable state); windows are wall-clock microseconds — the same
     clock as [now_ticks] — and the merged snapshot lands in the sink
     after the watchdog joins every worker. *)
  let tels =
    match telemetry with
    | None -> None
    | Some s ->
        Some (Array.init w (fun _ -> Telemetry.recorder ~window:s.Telemetry.window ()))
  in
  let worker wi =
    let tel = match tels with None -> None | Some a -> Some a.(wi) in
    let rng =
      Random.State.make
        [|
          wi;
          Int64.to_int (Sim.Rng.derive cfg.seed ~stream:(100 + wi));
        |]
    in
    let stamps = Array.make cfg.keys (-1) in
    let bump a = a.(wi) <- a.(wi) + 1 in
    (* Clients are sharded round-robin over workers; each worker serves
       its share in arrival order, open-loop: it sleeps until the
       scheduled arrival, then drives the attempt loop. *)
    let ci = ref wi in
    while !ci < cfg.clients do
      let c = !ci in
      ci := !ci + w;
      let key = key_of.(c) in
      let res = keys.(key) in
      sleep_ticks (arrival_at.(c) -. now_ticks ());
      (match tel with
      | None -> ()
      | Some r -> TS.bump r.Telemetry.arrivals ~at:(now_ticks ()));
      let attempt = ref 0 in
      let running = ref true in
      while !running do
        bump tally.t_attempts;
        let now = now_ticks () in
        if now -. arrival_at.(c) > cfg.deadline then begin
          bump tally.t_deadline;
          (match tel with
          | None -> ()
          | Some r -> TS.bump r.Telemetry.deadline_miss ~at:now);
          running := false
        end
        else begin
          let backoff_retry () =
            if !attempt > 0 then begin
              bump tally.t_retries;
              match tel with
              | None -> ()
              | Some r -> TS.bump r.Telemetry.retries ~at:now
            end;
            incr attempt;
            sleep_ticks
              (Backoff.delay cfg.backoff ~seed:cfg.seed ~client:c
                 ~attempt:!attempt)
          in
          match R.state res with
          | Resettable.Held { round; since; _ } ->
              (* A holder that outlives its lease crashed (or is
                 wedged); anyone may recover the key. *)
              if now -. since > lease then
                if R.force_expire res ~round ~now then
                  (match tel with
                  | None -> ()
                  | Some r -> TS.bump r.Telemetry.recoveries ~at:now);
              backoff_retry ()
          | Resettable.Open { round; inst; since } ->
              if stamps.(key) >= round then begin
                (* This worker already burned its slot in this round's
                   instance. If the round's winner crashed before
                   claiming, the [Open] state itself goes stale and
                   must be expired here. *)
                if now -. since > lease then
                  if R.force_expire res ~round ~now then
                    (match tel with
                    | None -> ()
                    | Some r -> TS.bump r.Telemetry.recoveries ~at:now);
                backoff_retry ()
              end
              else begin
                stamps.(key) <- round;
                if Multicore.Mc_le.elect inst rng ~slot:wi then begin
                  let u = Random.State.float rng 1.0 in
                  if u < cfg.crash_prob /. 2.0 then begin
                    (* Crash between winning and claiming: the round
                       stays [Open] and only lease expiry can move it
                       on. *)
                    bump tally.t_holder;
                    bump tally.t_crashed;
                    (match tel with
                    | None -> ()
                    | Some r ->
                        let at = now_ticks () in
                        TS.bump r.Telemetry.holder_crashes ~at;
                        TS.bump r.Telemetry.crashes ~at);
                    running := false
                  end
                  else if R.claim res ~round ~owner:c ~now:(now_ticks ())
                  then
                    if u < cfg.crash_prob then begin
                      (* Crash while holding: no release ever comes. *)
                      bump tally.t_holder;
                      bump tally.t_crashed;
                      (match tel with
                      | None -> ()
                      | Some r ->
                          let at = now_ticks () in
                          TS.bump r.Telemetry.holder_crashes ~at;
                          TS.bump r.Telemetry.crashes ~at);
                      running := false
                    end
                    else begin
                      let lat = now_ticks () -. arrival_at.(c) in
                      tally.t_latencies.(wi) <- lat :: tally.t_latencies.(wi);
                      bump tally.t_completed;
                      (match tel with
                      | None -> ()
                      | Some r ->
                          let at = now_ticks () in
                          TS.bump r.Telemetry.completions ~at;
                          TS.observe r.Telemetry.latency ~at lat);
                      sleep_ticks cfg.hold;
                      (* A false release means the lease expired under
                         us; the expiry counter already recorded it. *)
                      ignore
                        (R.release res ~round ~owner:c ~now:(now_ticks ()));
                      running := false
                    end
                  else begin
                    (* Won the election but the round moved on before
                       the claim: a stale win, voided by the CAS. *)
                    bump tally.t_stale;
                    (match tel with
                    | None -> ()
                    | Some r ->
                        TS.bump r.Telemetry.stale_wins ~at:(now_ticks ()));
                    backoff_retry ()
                  end
                end
                else backoff_retry ()
              end
        end
      done
    done
  in
  let outcome =
    Fault.Watchdog.race ~timeout:cfg.timeout ~n:w
      ~progress:(fun i -> tally.t_attempts.(i))
      ~label:(fun i -> Printf.sprintf "worker %d" i)
      worker
  in
  let duration = Float.max 1.0 (now_ticks ()) in
  let livelocked, diagnosis =
    match outcome with
    | Ok _ -> (false, None)
    | Error stuck ->
        (true, Some (Format.asprintf "%a" Fault.Watchdog.pp_stuck stuck))
  in
  let completed = sum tally.t_completed in
  let counts =
    {
      Report.clients = cfg.clients;
      completed;
      deadline_exceeded = sum tally.t_deadline;
      crashed_clients = sum tally.t_crashed;
      holder_crashes = sum tally.t_holder;
      forced_expiries = Array.fold_left (fun a r -> a + R.expiries r) 0 keys;
      shed = 0;
      retries = sum tally.t_retries;
      rounds = Array.fold_left (fun a r -> a + R.round r) 0 keys;
      stale_wins = sum tally.t_stale;
    }
  in
  if not livelocked then assert (Report.balanced counts);
  let latencies =
    Array.of_list (List.concat (Array.to_list tally.t_latencies))
  in
  let report =
    {
      Report.backend = "atomic";
      algorithm = cfg.algorithm;
      keys = cfg.keys;
      zipf_s = cfg.zipf_s;
      arrival = Arrival.describe cfg.arrival;
      backoff = Backoff.describe cfg.backoff;
      deadline = cfg.deadline;
      hold = cfg.hold;
      crash_prob = cfg.crash_prob;
      workers = w;
      seed = cfg.seed;
      duration;
      throughput = float_of_int completed /. duration *. 1000.0;
      counts;
      latency = Report.latency_of_samples latencies;
      livelocked;
      diagnosis;
    }
  in
  Option.iter (fun m -> Report.observe_metrics m report) metrics;
  (match (telemetry, tels) with
  | Some s, Some recs ->
      s.Telemetry.snapshot <-
        Array.fold_left
          (fun acc r -> TS.merge acc (Telemetry.snapshot r))
          TS.empty_snapshot recs
  | _ -> ());
  report
