let run ?telemetry ?(domains = 4) ?(timeout = 30.0) (cfg : Driver.config) =
  Driver.validate cfg;
  if domains < 1 then invalid_arg "Mc_driver: domains must be >= 1";
  if not (Float.is_finite timeout && timeout > 0.0) then
    invalid_arg "Mc_driver: timeout must be finite and > 0";
  (* The fields only the sim driver reads: a run that set one away from
     its default would silently not get what it asked for. *)
  let d = Driver.default ~algorithm:cfg.algorithm in
  List.iter
    (fun (field, set) ->
      if set then
        invalid_arg
          (Printf.sprintf "Mc_driver: %s only applies to the sim backend" field))
    [
      ("plan", cfg.plan <> d.plan);
      ("kernel", cfg.kernel <> d.kernel);
      ("events", cfg.events <> d.events);
      ("shards", cfg.shards <> d.shards);
      ("on_shed", cfg.on_shed <> d.on_shed);
      ("max_waiters", cfg.max_waiters <> d.max_waiters);
      ("contenders", cfg.contenders <> d.contenders);
      ( "telemetry trace",
        match telemetry with Some s -> s.Telemetry.trace | None -> false );
    ];
  let make_mc = (Rtas.Registry.lookup ~who:"Mc_driver" cfg.algorithm).make_mc in
  let w = domains in
  (* One tick = one microsecond of wall clock. *)
  let t0 = Unix.gettimeofday () in
  let now_ticks () = (Unix.gettimeofday () -. t0) *. 1e6 in
  let sleep_ticks t = if t > 0.0 then Unix.sleepf (t *. 1e-6) in
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
  let lmode = Driver.latency_mode cfg in
  let tallies = Array.init w (fun _ -> Tally.create ?sink:telemetry lmode) in
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
    (* One client, open-loop: sleep until its scheduled arrival, then
       drive the attempt loop. *)
    let serve c key arrival =
      let res = keys.(key) in
      sleep_ticks (arrival -. now_ticks ());
      Tally.bump tally Arrived ~at:(now_ticks ());
      let attempt = ref 0 in
      let running = ref true in
      while !running do
        attempts.(wi) <- attempts.(wi) + 1;
        let now = now_ticks () in
        if now -. arrival > cfg.deadline then begin
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
                if inst (Backend.Atomic_mem.ctx ~rng ~slot:wi ()) then begin
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
                      Tally.complete tally ~at (at -. arrival);
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
    in
    (* Clients are sharded round-robin over workers: every worker draws
       the sim driver's arrival stream, so the two backends face the
       same offered load for the same seed, and serves every [w]-th
       client of it in arrival order. *)
    let cl =
      Clients.create ~seed:cfg.seed cfg.arrival ~keys:cfg.keys
        ~zipf_s:cfg.zipf_s cfg.clients
    in
    while cl.Clients.index < cfg.clients do
      let c = cl.Clients.index
      and key = cl.Clients.key
      and arrival = cl.Clients.time.at in
      Clients.advance cl;
      if c mod w = wi then serve c key arrival
    done
  in
  let outcome =
    Fault.Watchdog.race ~timeout ~n:w
      ~progress:(fun i -> attempts.(i))
      ~label:(fun i -> Printf.sprintf "worker %d" i)
      worker
  in
  let duration = now_ticks () in
  (* A worker the watchdog gave up on is leaked and may still be
     writing its tally, so only finished workers' tallies are read. *)
  let total = Tally.create lmode in
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
  Option.iter (fun s -> s.Telemetry.snapshot <- Tally.snapshot total) telemetry;
  Driver.report cfg ~backend:"atomic" ~workers:w ~duration ~livelocked
    ~diagnosis total
