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

module TS = Obs.Timeseries

let run ?telemetry cfg =
  validate cfg;
  let make_mc =
    Driver.require ~who:"Mc_driver"
      (Driver.lookup ~who:"Mc_driver" cfg.algorithm)
      ~what:"Atomic_mem port"
      (fun e -> e.make_mc)
  in
  let w = cfg.workers in
  (* One tick = one microsecond of wall clock. *)
  let t0 = Unix.gettimeofday () in
  let now_ticks () = (Unix.gettimeofday () -. t0) *. 1e6 in
  let sleep_ticks t = if t > 0.0 then Unix.sleepf (t *. 1e-6) in
  (* The sim driver's arrival schedule and key choices, so the two
     backends face the same offered load for the same seed. *)
  let cl =
    Clients.schedule ~seed:cfg.seed cfg.arrival ~keys:cfg.keys
      ~zipf_s:cfg.zipf_s cfg.clients
  in
  (* Election width = worker count: a worker's slot in every one-shot
     instance is its own index, so slots never collide across domains
     and the per-worker round stamp enforces at-most-once per
     instance. *)
  let module R = Resettable.Make (struct
    type instance = Backend.Atomic_mem.ctx Leaderelect.Le.elect

    let fresh ~key:_ ~round:_ = make_mc (Backend.Atomic_mem.create ()) ~n:w
  end) in
  let keys = Array.init cfg.keys (fun k -> R.create ~key:k ~now:0.0) in
  (* One tally per worker domain (single-domain mutable state), its
     telemetry windows in wall-clock microseconds — the same clock as
     [now_ticks]. [attempts] is the watchdog's per-worker progress
     counter. *)
  let tallies = Array.init w (fun _ -> Tally.create ?sink:telemetry `Exact) in
  let attempts = Array.make w 0 in
  let lease = cfg.deadline in
  let worker wi =
    let tally = tallies.(wi) in
    let rng =
      Random.State.make
        [|
          wi;
          Int64.to_int (Sim.Rng.derive cfg.seed ~stream:(100 + wi));
        |]
    in
    let stamps = Array.make cfg.keys (-1) in
    (* Clients are sharded round-robin over workers; each worker serves
       its share in arrival order, open-loop: it sleeps until the
       scheduled arrival, then drives the attempt loop. *)
    let ci = ref wi in
    while !ci < cfg.clients do
      let c = !ci in
      ci := !ci + w;
      let key = cl.Clients.key.(c) in
      let res = keys.(key) in
      sleep_ticks (cl.Clients.arrival.(c) -. now_ticks ());
      Tally.bump tally Arrived ~at:(now_ticks ());
      let attempt = ref 0 in
      let running = ref true in
      while !running do
        attempts.(wi) <- attempts.(wi) + 1;
        let now = now_ticks () in
        if now -. cl.Clients.arrival.(c) > cfg.deadline then begin
          Tally.bump tally Deadline ~at:now;
          running := false
        end
        else begin
          let backoff_retry () =
            if !attempt > 0 then Tally.bump tally Retried ~at:now;
            incr attempt;
            sleep_ticks
              (Backoff.delay cfg.backoff ~seed:cfg.seed ~client:c
                 ~attempt:!attempt)
          in
          (* A round that outlives its lease — its holder crashed or
             is wedged, or its winner died before claiming — may be
             recovered by anyone. *)
          let expire_stale round since =
            if now -. since > lease && R.force_expire res ~round ~now then begin
              Tally.bump tally Recovered ~at:now;
              Tally.bump tally Round ~at:now
            end
          in
          let crash () =
            Tally.bump tally Holder_crashed ~at:(now_ticks ());
            running := false
          in
          match R.state res with
          | Resettable.Held { round; since; _ } ->
              expire_stale round since;
              backoff_retry ()
          | Resettable.Open { round; inst; since } ->
              if stamps.(key) >= round then begin
                (* This worker already burned its slot in this round's
                   instance. *)
                expire_stale round since;
                backoff_retry ()
              end
              else begin
                stamps.(key) <- round;
                if inst.Leaderelect.Le.elect
                     (Backend.Atomic_mem.ctx ~rng ~slot:wi ())
                then begin
                  let u = Random.State.float rng 1.0 in
                  if u < cfg.crash_prob /. 2.0 then
                    (* Crash between winning and claiming: the round
                       stays [Open] and only lease expiry can move it
                       on. *)
                    crash ()
                  else if R.claim res ~round ~owner:c ~now:(now_ticks ())
                  then
                    if u < cfg.crash_prob then
                      (* Crash while holding: no release ever comes. *)
                      crash ()
                    else begin
                      let at = now_ticks () in
                      Tally.complete tally ~at (at -. cl.Clients.arrival.(c));
                      sleep_ticks cfg.hold;
                      (* A false release means the lease expired under
                         us, and the expiry moved the key on. *)
                      let at = now_ticks () in
                      if R.release res ~round ~owner:c ~now:at then
                        Tally.bump tally Round ~at;
                      running := false
                    end
                  else begin
                    (* Won the election but the round moved on before
                       the claim: a stale win, voided by the CAS. *)
                    Tally.bump tally Stale_win ~at:(now_ticks ());
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
      ~progress:(fun i -> attempts.(i))
      ~label:(fun i -> Printf.sprintf "worker %d" i)
      worker
  in
  let duration = Float.max 1.0 (now_ticks ()) in
  (* A worker the watchdog gave up on is leaked and may still be
     writing its tally, so only finished workers' tallies are read. *)
  let total = Tally.create `Exact in
  let livelocked, diagnosis =
    match outcome with
    | Ok _ ->
        Array.iter (Tally.merge_into ~into:total) tallies;
        (false, None)
    | Error stuck ->
        List.iter
          (fun (p : Fault.Watchdog.domain_progress) ->
            if p.dp_finished then
              Tally.merge_into ~into:total tallies.(p.dp_index))
          stuck.stuck_progress;
        (true, Some (Format.asprintf "%a" Fault.Watchdog.pp_stuck stuck))
  in
  let counts = Tally.counts total ~clients:cfg.clients in
  if not livelocked then assert (Report.balanced counts);
  Option.iter (fun s -> s.Telemetry.snapshot <- Tally.snapshot total) telemetry;
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
    throughput = float_of_int counts.completed /. duration *. 1000.0;
    counts;
    latency = Tally.latency total;
    livelocked;
    diagnosis;
  }
