(* The service layer: resettable round isolation (differential against
   fresh one-shot runs), the round-stamp state machine, chaos recovery,
   driver determinism, and the workload generators. *)

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* {1 Round isolation, differentially}

   A resettable key that reuses its arena across rounds must behave, in
   every round, exactly like a brand-new one-shot instance: same
   results, same step counts, same RMR counts for the same derived
   schedule seed. 120 seeds x 3 rounds per registry entry. *)

let k_diff = 4
let rounds_diff = 3

let outcome_vector sched =
  Array.init k_diff (fun pid ->
      ( Sim.Sched.result sched pid,
        Sim.Sched.steps sched pid,
        Sim.Sched.rmrs sched pid ))

let run_election le ~sseed =
  let sched =
    Sim.Sched.create ~seed:sseed (Leaderelect.Le.programs le ~k:k_diff)
  in
  Sim.Sched.run sched
    (Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive sseed ~stream:1));
  outcome_vector sched

let test_round_isolated_vs_fresh () =
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let name = e.Rtas.Registry.name in
      for seed = 1 to 120 do
        let seed = Int64.of_int seed in
        (* Arena-reuse path: one memory, one structure, reset per round
           — exactly what the sim driver's election factory does. *)
        let mem = Sim.Memory.create () in
        let le = e.Rtas.Registry.make mem ~n:k_diff in
        let module E = struct
          type instance = Leaderelect.Le.t

          let fresh ~key:_ ~round = if round > 0 then Sim.Memory.reset mem; le
        end in
        let module R = Service.Resettable.Make (E) in
        let res = R.create ~key:0 ~now:0.0 in
        for round = 0 to rounds_diff - 1 do
          checki (name ^ ": round number") round (R.round res);
          let inst =
            match R.state res with
            | Service.Resettable.Open { inst; _ } -> inst
            | Service.Resettable.Held _ -> Alcotest.fail (name ^ ": held?")
          in
          let sseed = Sim.Rng.derive seed ~stream:round in
          let reused = run_election inst ~sseed in
          (* Fresh path: a brand-new arena and structure, same derived
             seed and adversary. *)
          let fresh_mem = Sim.Memory.create () in
          let fresh_le = e.Rtas.Registry.make fresh_mem ~n:k_diff in
          let fresh = run_election fresh_le ~sseed in
          checkb
            (Printf.sprintf "%s seed %Ld round %d: reused = fresh" name seed
               round)
            true (reused = fresh);
          let winners =
            Array.fold_left
              (fun a (r, _, _) -> if r = Some 1 then a + 1 else a)
              0 reused
          in
          checki (name ^ ": one winner") 1 winners;
          let w = ref (-1) in
          Array.iteri (fun pid (r, _, _) -> if r = Some 1 then w := pid) reused;
          checkb (name ^ ": claim") true
            (R.claim res ~round ~owner:!w ~now:1.0);
          checkb (name ^ ": stale claim rejected") false
            (R.claim res ~round ~owner:!w ~now:1.0);
          checkb (name ^ ": release") true
            (R.release res ~round ~owner:!w ~now:2.0)
        done
      done)
    Rtas.Registry.all

(* {1 Atomic rounds: exactly one winner per round} *)

let test_atomic_rounds_unique_winner () =
  let domains = 4 in
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let module E = struct
        type instance = Backend.Atomic_mem.ctx Leaderelect.Le.elect

        let fresh ~key:_ ~round:_ =
          e.Rtas.Registry.make_mc (Backend.Atomic_mem.create ()) ~n:domains
      end in
      let module R = Service.Resettable.Make (E) in
      for seed = 1 to 10 do
        let res = R.create ~key:0 ~now:0.0 in
        for round = 0 to 2 do
          checki "round" round (R.round res);
          let inst =
            match R.state res with
            | Service.Resettable.Open { inst; _ } -> inst
            | Service.Resettable.Held _ -> Alcotest.fail "held?"
          in
          let results =
            match
              Fault.Watchdog.race ~timeout:20.0 ~n:domains (fun slot ->
                  let rng = Random.State.make [| seed; round; slot; 0x5E |] in
                  inst (Backend.Atomic_mem.ctx ~rng ~slot ()))
            with
            | Ok r -> r
            | Error stuck ->
                Alcotest.failf "%s: %a" e.Rtas.Registry.name
                  Fault.Watchdog.pp_stuck stuck
          in
          let winners =
            Array.fold_left (fun a w -> if w then a + 1 else a) 0 results
          in
          checki
            (Printf.sprintf "%s seed %d round %d: unique winner"
               e.Rtas.Registry.name seed round)
            1 winners;
          let w = ref (-1) in
          Array.iteri (fun slot won -> if won then w := slot) results;
          checkb "claim" true (R.claim res ~round ~owner:!w ~now:1.0);
          checkb "release" true (R.release res ~round ~owner:!w ~now:2.0)
        done
      done)
    Rtas.Registry.all

(* {1 The round-stamp state machine} *)

module Unit_e = struct
  type instance = int

  let built = ref 0

  let fresh ~key:_ ~round:_ =
    incr built;
    !built
end

module UR = Service.Resettable.Make (Unit_e)

let test_stamp_transitions () =
  let r = UR.create ~key:3 ~now:0.0 in
  checki "key" 3 (UR.key r);
  checki "round 0" 0 (UR.round r);
  checkb "claim wrong round" false (UR.claim r ~round:1 ~owner:9 ~now:1.0);
  checkb "claim" true (UR.claim r ~round:0 ~owner:9 ~now:1.0);
  checkb "double claim" false (UR.claim r ~round:0 ~owner:8 ~now:1.0);
  checkb "release wrong owner" false (UR.release r ~round:0 ~owner:8 ~now:2.0);
  checkb "release wrong round" false (UR.release r ~round:1 ~owner:9 ~now:2.0);
  checkb "release" true (UR.release r ~round:0 ~owner:9 ~now:2.0);
  checki "round 1" 1 (UR.round r);
  checkb "stale release" false (UR.release r ~round:0 ~owner:9 ~now:2.0);
  (* Recovery: expire an Open round (winner crashed before claiming),
     then a Held one (holder crashed). *)
  checkb "expire open" true (UR.force_expire r ~round:1 ~now:3.0);
  checki "round 2" 2 (UR.round r);
  checkb "claim expired round" false (UR.claim r ~round:1 ~owner:7 ~now:3.0);
  checkb "claim" true (UR.claim r ~round:2 ~owner:7 ~now:4.0);
  checkb "expire held" true (UR.force_expire r ~round:2 ~now:9.0);
  checkb "release after expiry" false (UR.release r ~round:2 ~owner:7 ~now:9.5);
  checkb "expire stale" false (UR.force_expire r ~round:2 ~now:9.9);
  checki "expiries" 2 (UR.expiries r);
  checki "round 3" 3 (UR.round r)

(* {1 The sim driver} *)

let small_cfg ?(chaos = 0.0) ?(seed = 5L) () =
  {
    (Service.Driver.default ~algorithm:"log*") with
    Service.Driver.clients = 300;
    keys = 8;
    contenders = 8;
    crash_prob = chaos;
    seed;
  }

let test_driver_deterministic () =
  let j () = Service.Report.to_json (Service.Driver.run (small_cfg ())) in
  Alcotest.(check string) "same seed, same JSON" (j ()) (j ());
  let other =
    Service.Report.to_json (Service.Driver.run (small_cfg ~seed:6L ()))
  in
  checkb "different seed, different JSON" true (j () <> other)

(* The flat kernel must be report-invisible: same derived seeds, same
   adversary decisions, same winners and round spans, so the JSON is
   byte-identical. Every flat-registered entry, 20 seeds each, chaos
   included — the holder-crash draws live outside the election kernel
   and must not shift either. *)
let test_driver_flat_matches_effect () =
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      for s = 1 to 20 do
        List.iter
          (fun chaos ->
            let cfg =
              {
                (small_cfg ~chaos ~seed:(Int64.of_int s) ()) with
                Service.Driver.algorithm = e.Rtas.Registry.name;
              }
            in
            let eff = Service.Report.to_json (Service.Driver.run cfg) in
            let flat =
              Service.Report.to_json
                (Service.Driver.run { cfg with Service.Driver.kernel = `Flat })
            in
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d chaos %g: flat report = effect report"
                 e.Rtas.Registry.name s chaos)
              eff flat)
          [ 0.0; 0.4 ]
      done)
    (Rtas.Registry.flat ())

let test_driver_flat_rejects_plan () =
  let cfg =
    {
      (small_cfg ()) with
      Service.Driver.kernel = `Flat;
      plan = Some [ Fault.Plan.storm 0.02 ];
    }
  in
  match Service.Driver.run cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flat kernel with a fault plan must be rejected"

let test_driver_accounts_every_client () =
  List.iter
    (fun chaos ->
      let r = Service.Driver.run (small_cfg ~chaos ()) in
      let c = r.Service.Report.counts in
      checkb "balanced" true (Service.Report.balanced c);
      checkb "completions" true (c.Service.Report.completed > 0);
      checkb "no livelock" false r.Service.Report.livelocked)
    [ 0.0; 0.2; 0.6 ]

let test_driver_chaos_recovers () =
  let r = Service.Driver.run (small_cfg ~chaos:0.5 ()) in
  let c = r.Service.Report.counts in
  checkb "holders crashed" true (c.Service.Report.holder_crashes > 0);
  (* Every wedged round — holder crash or zero-winner — must have been
     recovered by a forced expiry before the heap drained: a crashed
     holder never wedges a key for good. *)
  checkb "every crash recovered" true
    (c.Service.Report.forced_expiries >= c.Service.Report.holder_crashes);
  checkb "service still completes work" true
    (c.Service.Report.completed > 0)

let test_driver_sheds_overload () =
  let cfg =
    {
      (small_cfg ()) with
      Service.Driver.arrival = Service.Arrival.Poisson { rate = 0.5 };
      max_waiters = 4;
      keys = 1;
      zipf_s = 0.0;
      deadline = 100_000.0;
    }
  in
  let r = Service.Driver.run cfg in
  let c = r.Service.Report.counts in
  checkb "sheds under overload" true (c.Service.Report.shed > 0);
  checkb "balanced under shed" true (Service.Report.balanced c)

(* {1 The event engines, differentially}

   The timing wheel must be report-invisible: both engines order events
   by (time, key, per-key sequence), so for any config and seed the
   JSON report is byte-identical. 120 seeds per registry entry,
   plus a chaos variant (lease expiries exercise the long-delay wheel
   levels). *)

let test_wheel_matches_heap () =
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let name = e.Rtas.Registry.name in
      for s = 1 to 120 do
        let cfg =
          {
            (Service.Driver.default ~algorithm:name) with
            Service.Driver.clients = 150;
            keys = 8;
            contenders = 4;
            seed = Int64.of_int s;
          }
        in
        let wheel =
          Service.Report.to_json
            (Service.Driver.run { cfg with Service.Driver.events = `Wheel })
        in
        let heap =
          Service.Report.to_json
            (Service.Driver.run { cfg with Service.Driver.events = `Heap })
        in
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d: wheel = heap" name s)
          heap wheel
      done)
    Rtas.Registry.all

let test_wheel_matches_heap_chaos () =
  for s = 1 to 120 do
    let cfg = small_cfg ~chaos:0.3 ~seed:(Int64.of_int s) () in
    let wheel =
      Service.Report.to_json
        (Service.Driver.run { cfg with Service.Driver.events = `Wheel })
    in
    let heap =
      Service.Report.to_json
        (Service.Driver.run { cfg with Service.Driver.events = `Heap })
    in
    Alcotest.(check string)
      (Printf.sprintf "chaos seed %d: wheel = heap" s)
      heap wheel
  done

(* Two documented [rtas service] runs, wheel against heap: poison on
   the flat kernel at 500 clients, and a dense overload with retry on
   shed (about 4.7M retries over 23k ticks, some 200 events per tick),
   where the wheel's level-0 slots chain several event chunks. Each
   config is the one the command line builds from the flags named in
   its comment. *)
let test_wheel_matches_heap_cli_runs () =
  let cli = Service.Driver.default in
  List.iter
    (fun (what, cfg) ->
      let json events =
        Service.Report.to_json
          (Service.Driver.run { cfg with Service.Driver.events; seed = 11L })
      in
      Alcotest.(check string) (what ^ ": wheel = heap") (json `Heap)
        (json `Wheel))
    [
      (* --alg poison --kernel flat --clients 500 --keys 8 --seed 11 *)
      ( "poison, 500 clients",
        { (cli ~algorithm:"poison") with clients = 500; keys = 8; kernel = `Flat }
      );
      (* --alg tournament --kernel flat --clients 60000 --keys 64 --zipf 0
         --rate 20 --backoff exp:8:256 --contenders 2 --max-waiters 16
         --hold 20 --on-shed retry --latency hist --seed 11 *)
      ( "dense overload, 60k clients",
        {
          (cli ~algorithm:"tournament") with
          clients = 60_000;
          keys = 64;
          zipf_s = 0.0;
          arrival = Service.Arrival.Poisson { rate = 20.0 };
          backoff = Service.Backoff.Exp { base = 8.0; cap = 256.0 };
          contenders = 2;
          max_waiters = 16;
          hold = 20.0;
          on_shed = `Retry;
          kernel = `Flat;
          latency = `Hist;
        } );
    ]

(* Sharded execution: the keyspace partition is report-invisible for
   any shard count, on either engine, serial or on a domain pool. *)
let test_driver_shards_identical () =
  let cfg =
    {
      (small_cfg ~chaos:0.2 ()) with
      Service.Driver.clients = 400;
      keys = 8;
      zipf_s = 0.7;
    }
  in
  let run ?domains shards events =
    Service.Report.to_json
      (Service.Driver.run ?domains
         { cfg with Service.Driver.shards; events })
  in
  let base = run 1 `Wheel in
  Alcotest.(check string) "2 shards = 1 shard" base (run 2 `Wheel);
  Alcotest.(check string) "4 shards = 1 shard" base (run 4 `Wheel);
  Alcotest.(check string) "4 shards on 2 domains" base
    (run ~domains:2 4 `Wheel);
  Alcotest.(check string) "4 heap shards" base (run ~domains:2 4 `Heap)

(* The retry shed mode: rejections are events, not terminal outcomes —
   completed + deadline + crashed partition the population, shed counts
   bounces (and under sustained overload exceeds the client count) —
   and the engines still agree byte for byte. *)
let test_driver_retry_on_shed () =
  let cfg =
    {
      (Service.Driver.default ~algorithm:"tournament") with
      Service.Driver.clients = 2_000;
      keys = 2;
      zipf_s = 0.0;
      arrival = Service.Arrival.Poisson { rate = 2.0 };
      contenders = 2;
      max_waiters = 4;
      hold = 500.0;
      on_shed = `Retry;
      seed = 42L;
    }
  in
  let rw = Service.Driver.run { cfg with Service.Driver.events = `Wheel } in
  let rh = Service.Driver.run { cfg with Service.Driver.events = `Heap } in
  Alcotest.(check string)
    "retry mode: wheel = heap"
    (Service.Report.to_json rh)
    (Service.Report.to_json rw);
  let c = rw.Service.Report.counts in
  checkb "shed events recorded" true (c.Service.Report.shed > 0);
  checkb "shed exceeds clients (events, not outcomes)" true
    (c.Service.Report.shed > c.Service.Report.clients);
  checki "terminal partition excludes shed"
    c.Service.Report.clients
    (c.Service.Report.completed + c.Service.Report.deadline_exceeded
   + c.Service.Report.crashed_clients);
  checkb "partition predicate agrees" true
    (Service.Report.balanced ~shed_terminal:false c)

(* The service loop's allocation ceiling with telemetry off, on a
   svc-overload-shaped run (retry on shed, flat kernel, wheel): minor
   words per unit of work, a unit being a client, a retry or a round.
   The loop measured 8.28 words per unit when this ceiling was set at
   10% above it, so an always-on cost in the tally or the event loop —
   a closure, a boxed float or an option per event — fails here. *)
let test_driver_alloc_ceiling () =
  let cfg =
    {
      (Service.Driver.default ~algorithm:"tournament") with
      Service.Driver.clients = 100_000;
      keys = 64;
      zipf_s = 0.0;
      arrival = Service.Arrival.Poisson { rate = 20.0 };
      backoff = Service.Backoff.Exp { base = 8.0; cap = 256.0 };
      contenders = 2;
      max_waiters = 16;
      hold = 20.0;
      on_shed = `Retry;
      kernel = `Flat;
      events = `Wheel;
      latency = `Hist;
      seed = 7L;
    }
  in
  let w0 = Gc.minor_words () in
  let c = (Service.Driver.run cfg).Service.Report.counts in
  let words = Gc.minor_words () -. w0 in
  let units =
    c.Service.Report.clients + c.Service.Report.retries + c.Service.Report.rounds
  in
  let per_unit = words /. float_of_int units in
  (* The run's heap is garbage now: hand it back, so the tests after
     this one that count exact minor words start from a small heap. *)
  Gc.compact ();
  checkb
    (Printf.sprintf "%.3f minor words per unit <= %.3f" per_unit (8.28 *. 1.1))
    true
    (per_unit <= 8.28 *. 1.1)

(* The benchmark's svc-scale shape, seed 1. *)
let svc_scale ~clients =
  {
    (Service.Driver.default ~algorithm:"tournament") with
    Service.Driver.clients;
    keys = 256;
    zipf_s = 0.5;
    arrival = Service.Arrival.Poisson { rate = 20.0 };
    contenders = 2;
    max_waiters = 32;
    hold = 50.0;
    crash_prob = 0.001;
    kernel = `Flat;
    latency = `Hist;
    shards = 4;
  }

(* The peak of a gauge over every window of a run with a 1000-tick
   sink. *)
let gauge_peak ?domains cfg name =
  let sink = Service.Telemetry.sink ~window:1000.0 () in
  ignore (Service.Driver.run ?domains ~telemetry:sink cfg : Service.Report.t);
  List.fold_left
    (fun a (_, v) -> Float.max a v)
    0.0
    (List.assoc name sink.Service.Telemetry.snapshot.Obs.Timeseries.s_gauges)

(* The event pool follows the events in flight: arrivals stream into
   the loop, so on a svc-scale-shaped run (100k clients over 4 shards,
   one loop per shard on 4 domains) the wheel's live-event peak was
   5,818 when this bound was set. A queue holding every arrival from
   the start peaks above the 25k clients of a shard (25,248 on this
   run). The peak is not smaller because every claimed round arms a
   20k-tick lease and the whole run spans 5k ticks. The client-slot
   gauge peaked at 2,052 live slots. *)
let test_driver_pool_tracks_in_flight () =
  let cfg = svc_scale ~clients:100_000 in
  let peak = gauge_peak ~domains:4 cfg in
  let pool = peak "service.wheel_pool_hw" in
  checkb
    (Printf.sprintf "pool peak %g <= 1.5 x the 5818 measured" pool)
    true
    (pool <= 1.5 *. 5_818.0);
  checkb
    (Printf.sprintf "pool peak %g <= a third of the 25000 clients per shard"
       pool)
    true
    (pool <= 25_000.0 /. 3.0);
  let slots = peak "service.client_slots" in
  checkb
    (Printf.sprintf "client slots peak %g in (0, 1.5 x the 2052 measured]"
       slots)
    true
    (slots > 0.0 && slots <= 1.5 *. 2_052.0)

(* On one domain the same run is one loop holding every key, so its
   gauges are a 1-shard run's: the 1-shard peaks of this run were
   23,774 pooled events and 8,186 live client slots when these bounds
   were set. *)
let test_driver_pool_one_loop () =
  let peak = gauge_peak ~domains:1 (svc_scale ~clients:100_000) in
  let pool = peak "service.wheel_pool_hw" in
  checkb
    (Printf.sprintf "pool peak %g <= 1.5 x the 23774 measured" pool)
    true
    (pool <= 1.5 *. 23_774.0);
  let slots = peak "service.client_slots" in
  checkb
    (Printf.sprintf "client slots peak %g in (0, 1.5 x the 8186 measured]"
       slots)
    true
    (slots > 0.0 && slots <= 1.5 *. 8_186.0)

(* Per-client state follows the clients in flight, not the client
   count. Over one svc-scale-shaped run of 400k clients, telemetry off,
   the words allocated straight into the major heap ([major_words -
   promoted_words]: the large arrays) stay under one per client. A
   driver that holds six words per client for the whole run, as the
   schedule drawn up front into per-client arrays did, reads 6.04 here;
   the in-flight slot pool read 0.078 when this bound was set, and 0.064
   once the latency histogram's counts grew on demand. With the 4 shards
   in one event loop, one wheel and one slot pool hold every key's
   events and clients in flight: 0.198.

   The same run with a 1000-tick sink adds one quantile window per
   series per window per event loop. Each window allocating all 1,665
   bucket counts up front read 2.161 words per client with a loop per
   shard; counts grown by doubling to the largest bucket seen read
   0.409, and 0.278 with the one loop. *)
let test_driver_memory_follows_in_flight () =
  let clients = 400_000 in
  let per_client ?telemetry () =
    let _, p0, m0 = Gc.counters () in
    ignore
      (Service.Driver.run ?telemetry (svc_scale ~clients) : Service.Report.t);
    let _, p1, m1 = Gc.counters () in
    (m1 -. m0 -. (p1 -. p0)) /. float_of_int clients
  in
  let off = per_client () in
  checkb
    (Printf.sprintf "%.3f direct major words per client <= 1" off)
    true (off <= 1.0);
  let sink = Service.Telemetry.sink ~window:1000.0 () in
  let on = per_client ~telemetry:sink () in
  checkb
    (Printf.sprintf "%.3f direct major words per client, 1000-tick sink, <= 0.6"
       on)
    true (on <= 0.6)

let test_driver_rejects_domains () =
  List.iter
    (fun domains ->
      match Service.Driver.run ~domains (small_cfg ()) with
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (Printf.sprintf "domains %d" domains)
            "Driver: domains must be >= 1" msg
      | _ -> Alcotest.failf "domains %d was accepted" domains)
    [ 0; -3 ]

(* {1 Report bytes, pinned}

   The MD5 of the JSON report of twelve configurations at seeds 1, 2
   and 3. Both event queues take arrivals through the same streaming
   path, so wheel = heap cannot see a change in the order arrivals
   enter the loop; these digests, taken while every arrival was still
   pre-scheduled, can. The first three rows are the benchmark's
   service workloads at 1% of their size. *)

let golden_cfgs =
  let svc = Service.Driver.default ~algorithm:"tournament" in
  let zipf =
    {
      svc with
      Service.Driver.clients = 8_000;
      keys = 4096;
      zipf_s = 0.99;
      arrival = Service.Arrival.Poisson { rate = 0.1 };
      contenders = 64;
      max_waiters = 64;
      kernel = `Flat;
      latency = `Hist;
    }
  in
  let overload =
    {
      svc with
      Service.Driver.clients = 1_000;
      keys = 64;
      zipf_s = 0.0;
      arrival = Service.Arrival.Poisson { rate = 20.0 };
      backoff = Service.Backoff.Exp { base = 8.0; cap = 256.0 };
      contenders = 2;
      max_waiters = 16;
      hold = 20.0;
      on_shed = `Retry;
      kernel = `Flat;
      latency = `Hist;
    }
  in
  let scale = svc_scale ~clients:40_000 in
  let small = small_cfg () in
  [
    ("svc-zipf 1%", zipf);
    ("svc-overload 1%", overload);
    ("svc-scale 1%", scale);
    ("svc-scale 1%, 1 shard", { scale with Service.Driver.shards = 1 });
    ("svc-overload 1%, heap", { overload with Service.Driver.events = `Heap });
    ("svc-scale 1%, heap", { scale with Service.Driver.events = `Heap });
    ("small", small);
    ("small, 4 heap shards", { small with Service.Driver.shards = 4; events = `Heap });
    ( "small, retry on shed",
      {
        small with
        Service.Driver.arrival = Service.Arrival.Poisson { rate = 0.5 };
        max_waiters = 4;
        on_shed = `Retry;
      } );
    ( "crash 0.001, bursty, 2 shards",
      {
        small with
        Service.Driver.clients = 3_000;
        crash_prob = 0.001;
        arrival =
          Service.Arrival.Bursty
            { rate = 0.02; burst_len = 500.0; idle_len = 2000.0; boost = 8.0 };
        shards = 2;
      } );
    ( "effect kernel, fault plan",
      {
        small with
        Service.Driver.algorithm = "tournament";
        plan = Some [ Fault.Plan.storm 0.02 ];
      } );
    ( "effect kernel, fault plan, heap",
      {
        small with
        Service.Driver.plan = Some [ Fault.Plan.crash_at ~pid:1 ~time:3 ];
        events = `Heap;
        crash_prob = 0.2;
      } );
  ]

let golden_digests =
  [
    ("svc-zipf 1%", [ "7730cf682734930e38e735bc1ee2c306"; "56a3d1c038fc1a4665f864098f6f1b4a"; "56b98373e1351ab0809f5b72e8ca7fa3" ]);
    ("svc-overload 1%", [ "aba8d5e1b9b4810b161d6c8ba734a432"; "e5a877faca073356b396f6adc48cadc0"; "214535793edfb581bb49f614ddaecba2" ]);
    ("svc-scale 1%", [ "1263da2c560b0e6f6e27df9ad5e386c6"; "fe0371270e18015826c8f92b9232a54b"; "cc41d8fc9390b3cadee5f1074e9cb38e" ]);
    ("svc-scale 1%, 1 shard", [ "1263da2c560b0e6f6e27df9ad5e386c6"; "fe0371270e18015826c8f92b9232a54b"; "cc41d8fc9390b3cadee5f1074e9cb38e" ]);
    ("svc-overload 1%, heap", [ "aba8d5e1b9b4810b161d6c8ba734a432"; "e5a877faca073356b396f6adc48cadc0"; "214535793edfb581bb49f614ddaecba2" ]);
    ("svc-scale 1%, heap", [ "1263da2c560b0e6f6e27df9ad5e386c6"; "fe0371270e18015826c8f92b9232a54b"; "cc41d8fc9390b3cadee5f1074e9cb38e" ]);
    ("small", [ "10d1ca758de84b8bab6f1d4102154635"; "1381d29de2c4702543af11f9877eea0d"; "b30a9c07b192747923294ddb993ec72f" ]);
    ("small, 4 heap shards", [ "10d1ca758de84b8bab6f1d4102154635"; "1381d29de2c4702543af11f9877eea0d"; "b30a9c07b192747923294ddb993ec72f" ]);
    ("small, retry on shed", [ "2c97936ff606cdeb64cdff71c25bafec"; "c59d24cd2ccca68993e7a2164b4f56dc"; "c8221f749f9e61652134f2772f897f83" ]);
    ("crash 0.001, bursty, 2 shards", [ "ca5c6ad911b2a24ddf92297969bec710"; "5bf4a271b1ad7f0b1034f917e85fe4a7"; "70c2b0734068db8e89d4c103e876b2bd" ]);
    ("effect kernel, fault plan", [ "b5e869cd5d2de18894eb21403898f31a"; "4022efcbd0e06700f3e95010aac37ed2"; "05b348390df760781758fd996006a85b" ]);
    ("effect kernel, fault plan, heap", [ "ff7443d9a22187cb44d7b0450205c595"; "cf88c45b4946bb8fabf852ae3a49cde8"; "fd7e49444c862a8fa0dadaa9aefcd2eb" ]);
  ]

(* Many keys on one effect-kernel arena: every round of a shard runs
   on the same election structure, reset between rounds. Classic
   RatRace builds its primary-tree nodes on first touch and keeps them
   across resets, so a key's rounds meet nodes that other keys' rounds
   built; log* allocates everything up front. Contended (rate 2 over
   512 keys) so that rounds of 2..8 contenders mix with solo ones.
   These digests were taken while every key still had an arena of its
   own. *)
let shared_arena_cfgs =
  let cfg algorithm =
    {
      (small_cfg ()) with
      Service.Driver.algorithm;
      clients = 4_000;
      keys = 512;
      contenders = 8;
      arrival = Service.Arrival.Poisson { rate = 2.0 };
    }
  in
  [ ("ratrace, 512 keys", cfg "ratrace"); ("log*, 512 keys", cfg "log*") ]

let shared_arena_digests =
  [
    ("ratrace, 512 keys", [ "2e38df587a47833279e37963215f29a4"; "646f9255dac309d6795208b86dd5d95b"; "6334561d9e48ea37d757f0ee86f4096f" ]);
    ("log*, 512 keys", [ "514e6c41263a042871a2f7c3baffb94a"; "b7b27ba3f0f21ef9fd0c4a4033d97ad0"; "10a91ee39964f924fb37fbc314e6f999" ]);
  ]

(* The MD5 of [bytes cfg] at seeds 1, 2 and 3 of each configuration. *)
let check_digests what bytes cfgs expected =
  let actual =
    List.map
      (fun (name, cfg) ->
        ( name,
          List.map
            (fun s ->
              Digest.to_hex
                (Digest.string
                   (bytes { cfg with Service.Driver.seed = Int64.of_int s })))
            [ 1; 2; 3 ] ))
      cfgs
  in
  if actual <> expected then begin
    List.iter
      (fun (name, ds) ->
        Printf.printf "    (%S, [ %s ]);\n" name
          (String.concat "; " (List.map (Printf.sprintf "%S") ds)))
      actual;
    Alcotest.failf "%s digests moved (the current ones are printed above)" what
  end

let report_bytes cfg = Service.Report.to_json (Service.Driver.run cfg)

let test_report_digests_pinned () =
  check_digests "report" report_bytes golden_cfgs golden_digests

let test_shared_arena_digests_pinned () =
  check_digests "report" report_bytes shared_arena_cfgs shared_arena_digests

(* A winner's lease and its clean release on one key, at every order
   their times can take: the release first ([hold = 0]), both on the
   same instant ([hold = deadline]: the lease fires first, its kseq being
   taken first, at claim time), and the lease first with no crash
   configured ([hold > deadline]: every lease forces its round on).
   Contended, so forced rounds and deadline misses both occur. These
   digests were taken while every claim still queued its lease. *)
let lease_cfgs =
  let cfg ~hold ~deadline =
    {
      (small_cfg ()) with
      Service.Driver.arrival = Service.Arrival.Poisson { rate = 0.1 };
      hold;
      deadline;
    }
  in
  [
    ("hold = deadline", cfg ~hold:400.0 ~deadline:400.0);
    ("hold > deadline, no crashes", cfg ~hold:600.0 ~deadline:400.0);
    ("hold = 0", cfg ~hold:0.0 ~deadline:400.0);
  ]

let lease_digests =
  [
    ("hold = deadline", [ "5b7758ddb4b811af8b65ee1771f7587c"; "64a3d94fb4aa6ca8c10bb9468e411a65"; "2bcf8b25139f3ba6e0fda3d69a76cbbb" ]);
    ("hold > deadline, no crashes", [ "7fda45c4b642d0cf546e86b5af4d9258"; "7ec4f257d4734f76da71f24104cc3ae0"; "0d67e8e5e2d3e744caa6b42d6e0b6e71" ]);
    ("hold = 0", [ "b379a5aa2e50226a62b7c3a58556726f"; "3bf2fed3bf076dbf7c563d36183eb3da"; "b94947b8c11ff241d8c3c8123473ba70" ]);
  ]

let test_lease_digests_pinned () =
  check_digests "report" report_bytes lease_cfgs lease_digests

(* Equal-time arrivals. After an idle stretch of 2^47 ticks, with a
   dozen arrivals strewn across it, a burst of 100 arrivals per tick
   lands where one float step is 1/32 tick, so runs of arrivals share
   one instant, their keys in stream order. The loop must take each run
   in key order, as a queue holding every arrival does. Keys never interact, so that order shows only in the
   order rounds on one instant run: the digests cover the report and
   the Perfetto trace's round spans in the order they were written.
   They were taken on the heap while every arrival still passed through
   the queue. *)
let tied_arrival_cfgs =
  let cfg =
    {
      (small_cfg ()) with
      Service.Driver.clients = 600;
      arrival =
        Service.Arrival.Bursty
          { rate = 1e-13; burst_len = 4.0; idle_len = 0x1p47; boost = 1e15 };
    }
  in
  [
    ("tied arrivals", cfg);
    ("tied arrivals, heap", { cfg with Service.Driver.events = `Heap });
  ]

let tied_arrival_digests =
  [
    ("tied arrivals", [ "8a0c28cf24a446fd65f1944dc8a4ce71"; "28eaca5f2bdc175b79714c465da96f66"; "eaced0cd5e5af9a73a4334cb9e881f9a" ]);
    ("tied arrivals, heap", [ "8a0c28cf24a446fd65f1944dc8a4ce71"; "28eaca5f2bdc175b79714c465da96f66"; "eaced0cd5e5af9a73a4334cb9e881f9a" ]);
  ]

let report_and_rounds cfg =
  (* Windows as wide as the run's idle stretches. *)
  let sink = Service.Telemetry.sink ~trace:true ~window:0x1p44 () in
  let r = Service.Driver.run ~telemetry:sink cfg in
  let trace = Option.get sink.Service.Telemetry.trace_json in
  String.concat "\n"
    (Service.Report.to_json r
    :: List.filter
         (fun l -> contains l "\"name\":\"round\"")
         (String.split_on_char '\n' trace))

let test_tied_arrival_digests_pinned () =
  let cfg = List.assoc "tied arrivals" tied_arrival_cfgs in
  let open Service.Driver in
  let cl =
    Service.Clients.create ~seed:1L cfg.arrival ~keys:cfg.keys
      ~zipf_s:cfg.zipf_s cfg.clients
  in
  let unordered = ref 0 and at = ref Float.nan and key = ref 0 in
  while cl.Service.Clients.index < cfg.clients do
    if cl.Service.Clients.time.at = !at && cl.Service.Clients.key < !key then
      incr unordered;
    at := cl.Service.Clients.time.at;
    key := cl.Service.Clients.key;
    Service.Clients.advance cl
  done;
  checkb
    (Printf.sprintf "%d tied arrivals out of key order" !unordered)
    true (!unordered >= 20);
  check_digests "report and round order" report_and_rounds tied_arrival_cfgs
    tied_arrival_digests

(* The telemetry exports of four golden configurations with a sink at
   window 1000: the time-series JSON, OpenMetrics text, Perfetto
   counter tracks and per-window table, concatenated. Next to the
   report digests they pin every quantile window's buckets, ranks,
   midpoints and cross-shard merge. Run with one event loop per shard
   ([~domains:shards]), which keeps the wheel gauges per shard. Taken
   once arrivals merged straight from their stream and a lease was
   queued only when it could win: that moved only the series that
   describe the queue ({!queue_series}), which the workload digests
   below pin without. *)
let export_cfgs =
  List.filter
    (fun (name, _) ->
      List.mem name
        [
          "svc-zipf 1%";
          "svc-overload 1%";
          "svc-scale 1%";
          "crash 0.001, bursty, 2 shards";
        ])
    golden_cfgs

let export_digests =
  [
    ("svc-zipf 1%", [ "b4e902f4b7fac2bb5fd64b3cc260c530"; "8624a84f53980a94d1404166cb4856be"; "ab911299c96a6e9e0ab20b600b29953a" ]);
    ("svc-overload 1%", [ "b4cadb7abcd450607566776a0b791121"; "8574f9c7c10b6429b114958ad2e6ccd9"; "1bcddbdb7ee24e7275c65f21e53316d3" ]);
    ("svc-scale 1%", [ "45e56203f1809669e35302dd2bd7aaff"; "9f66f28732c65b17f13985489db40054"; "97782ebc27755dd8fc3f0a3347107068" ]);
    ("crash 0.001, bursty, 2 shards", [ "f21d121bfd325683c8489ab7c02144bc"; "9aaf306c45aab0a31fa90c8f0c0afd70"; "44ceed1de50b5c22afc4029816d16fa2" ]);
  ]

(* The series that describe the event queue itself rather than the
   workload: the loop lag and the occupancy gauges, all sampled as
   queue events pop. *)
let queue_series =
  [
    "service.loop_lag_ticks";
    "service.wheel_live";
    "service.wheel_pool_hw";
    "service.wheel_slots";
    "service.client_slots";
  ]

let without_queue_series (s : Obs.Timeseries.snapshot) =
  let keep (name, _) = not (List.mem name queue_series) in
  {
    s with
    Obs.Timeseries.s_gauges = List.filter keep s.Obs.Timeseries.s_gauges;
    s_quantiles = List.filter keep s.Obs.Timeseries.s_quantiles;
  }

let export_bytes ?domains ?(queue = true) cfg =
  let sink = Service.Telemetry.sink ~window:1000.0 () in
  ignore (Service.Driver.run ?domains ~telemetry:sink cfg : Service.Report.t);
  let s = sink.Service.Telemetry.snapshot in
  let s = if queue then s else without_queue_series s in
  let tr = Obs.Chrome_trace.create () in
  Obs.Timeseries.to_chrome s tr;
  String.concat ""
    [
      Obs.Timeseries.to_json s;
      Obs.Timeseries.to_openmetrics s;
      Obs.Chrome_trace.to_string tr;
      Fmt.str "%a" Obs.Timeseries.pp s;
    ]

let test_export_digests_pinned () =
  check_digests "telemetry export"
    (fun cfg -> export_bytes ~domains:cfg.Service.Driver.shards cfg)
    export_cfgs export_digests

(* The same exports without {!queue_series}: everything that describes
   the workload. Taken while every arrival and every lease still passed
   through the queue, so they pin that the queue's contents changed no
   workload series. *)
let workload_export_digests =
  [
    ("svc-zipf 1%", [ "b8a9c0cc7577654caad5dd534bf5382d"; "5e100ad82829dfd29002d177b3c2581b"; "c9702e7c9573e84018a4bd89ffe8406f" ]);
    ("svc-overload 1%", [ "48b377b1905ab7605bd1706d6c18f9c9"; "53774cc8ce4011f3fb836428bd248713"; "6a5cd8976071e4d1c69470ed9f4c30e5" ]);
    ("svc-scale 1%", [ "f6ff7ac5fee08f729cb5c874270514ab"; "98645f04a7590c0c869f08c3797fd27c"; "f448a872db1d4cbfa942e2c917f9eb61" ]);
    ("crash 0.001, bursty, 2 shards", [ "f773bc3376ed34fa7216439ae56c73cb"; "901263526fd6845155855d8e2064f10f"; "82532867b0fd3a0e1a255bc5524c6fd8" ]);
  ]

let test_workload_export_digests_pinned () =
  check_digests "workload export"
    (fun cfg ->
      export_bytes ~domains:cfg.Service.Driver.shards ~queue:false cfg)
    export_cfgs workload_export_digests

(* The loop lag reads 0 in every window of every golden configuration
   on the wheel: no event is queued into the past of an earlier pop, and
   the lag does not read the lead a peek gives the wheel's clock. *)
let test_golden_lag_zero () =
  List.iter
    (fun (name, cfg) ->
      let sink = Service.Telemetry.sink ~window:1000.0 () in
      ignore
        (Service.Driver.run ~domains:cfg.Service.Driver.shards ~telemetry:sink
           cfg
          : Service.Report.t);
      let s = sink.Service.Telemetry.snapshot in
      match
        List.assoc_opt "service.loop_lag_ticks" s.Obs.Timeseries.s_quantiles
      with
      | None -> Alcotest.failf "%s: no loop-lag samples" name
      | Some q ->
          List.iter
            (fun (w : Obs.Timeseries.qwindow) ->
              if w.qw_max <> 0.0 then
                Alcotest.failf "%s: window %d reads a lag of up to %g" name
                  w.qw_win w.qw_max)
            q.Obs.Timeseries.qs_windows)
    (List.filter
       (fun (_, cfg) -> cfg.Service.Driver.events = `Wheel)
       (golden_cfgs @ shared_arena_cfgs @ lease_cfgs))

(* On one domain a multi-shard run is one event loop holding every key,
   the loop a 1-shard run has, so its whole export, gauges included,
   is the 1-shard export. *)
let test_export_one_loop () =
  List.iter
    (fun (name, cfg) ->
      if cfg.Service.Driver.shards > 1 then
        List.iter
          (fun seed ->
            let cfg = { cfg with Service.Driver.seed } in
            Alcotest.(check string)
              (Printf.sprintf "%s, seed %Ld: export = 1-shard export" name seed)
              (export_bytes { cfg with Service.Driver.shards = 1 })
              (export_bytes ~domains:1 cfg))
          [ 1L; 2L; 3L ])
    export_cfgs

(* {1 The wheel in isolation} *)

(* An online reference for the wheel: the set of live events. A
   correct pop is the (at, key, kseq) minimum of exactly that set. (A
   plain offline sort would be wrong: an event scheduled at an
   already-popped instant legitimately pops after its same-time,
   larger-ord predecessors.) The harness also tracks the most occupied
   slots seen after any call, for the chunk pool's memory bound. *)
module Live = Set.Make (struct
  type t = float * int * int

  let compare = compare
end)

type wheel_ref = {
  w : Service.Wheel.t;
  mutable live : Live.t;
  mutable kseq : int;
  mutable peak_slots : int;
}

let wheel_ref ~capacity =
  {
    w = Service.Wheel.create ~capacity ();
    live = Live.empty;
    kseq = 0;
    peak_slots = 0;
  }

let note_slots r =
  r.peak_slots <- max r.peak_slots (Service.Wheel.slots_occupied r.w)

let ref_sched r at key =
  r.kseq <- r.kseq + 1;
  let kseq = r.kseq in
  Service.Wheel.schedule r.w ~at ~key ~kseq ~kind:(kseq land 3) ~a:(key + kseq)
    ~b:kseq;
  r.live <- Live.add (at, key, kseq) r.live;
  note_slots r

(* Pop one event, check it against the reference, return its time. *)
let ref_pop r =
  let w = r.w in
  let id = Service.Wheel.pop w in
  checkb "pop id" true (id >= 0);
  let ord = w.Service.Wheel.ev_ord.(id) in
  let meta = w.Service.Wheel.ev_meta.(id) in
  let key = Service.Wheel.key_of_ord ord in
  let ks = Service.Wheel.kseq_of_ord ord in
  (* The payload must round-trip through the packing. *)
  checki "kind" (ks land 3) (Service.Wheel.kind_of_meta meta);
  checki "a" (key + ks) (Service.Wheel.a_of_meta meta);
  checki "b" ks (Service.Wheel.b_of_meta meta);
  let at = w.Service.Wheel.ev_at.(id) in
  let min_live = Live.min_elt r.live in
  if min_live <> (at, key, ks) then begin
    let a, k, q = min_live in
    Alcotest.failf "popped (%h, %d, %d), the minimum live event is (%h, %d, %d)"
      at key ks a k q
  end;
  r.live <- Live.remove min_live r.live;
  note_slots r;
  at

let ref_drain r =
  while Service.Wheel.live r.w > 0 do
    ignore (ref_pop r : float)
  done;
  checkb "every scheduled event popped" true (Live.is_empty r.live);
  checki "wheel drained" (-1) (Service.Wheel.pop r.w)

(* The chunk pool follows the events in flight: past the [create]
   reservation, every chunk allocated held events of an occupied slot,
   at most one of them partly full. *)
let check_pool_bound r ~hint =
  let cap = Service.Wheel.pool_capacity r.w
  and hw = Service.Wheel.high_water r.w in
  let bound = max hint (hw + (Service.Wheel.chunk * r.peak_slots)) in
  checkb
    (Printf.sprintf "pool %d <= max(%d, high water %d + %d x %d slots)" cap
       hint hw Service.Wheel.chunk r.peak_slots)
    true (cap <= bound)

(* Empty stretches of 2^8 to 2^47 ticks: each burst of events is
   scheduled [gap] past the last pop while the previous burst's tail is
   still live, so the wheel crosses the gap from one level's bitmap to
   the next. The [peek] that reaches the burst runs the wheel's clock
   ahead of the last pop, and events scheduled between the two land
   whole ticks before that clock: they must still pop first. *)
let wheel_gaps r rng =
  let last = ref (float_of_int (Service.Wheel.now_tick r.w)) in
  let key () = Sim.Rng.int rng 16 in
  let pop_one () =
    let now = ref_pop r in
    last := now;
    if Sim.Rng.int rng 4 = 0 then ref_sched r now (key ())
  in
  let min_at () =
    let at, _, _ = Live.min_elt r.live in
    at
  in
  for e = 8 to 47 do
    let from = !last and gap = Float.ldexp 1.0 e in
    let burst = from +. gap in
    for _ = 1 to 16 do
      ref_sched r
        (burst +. float_of_int (Sim.Rng.int rng 300) +. Sim.Rng.float rng)
        (key ())
    done;
    while min_at () < burst do
      pop_one ()
    done;
    let id = Service.Wheel.peek r.w in
    let at, _, _ = Live.min_elt r.live in
    checkb "peek is the earliest live event" true
      (r.w.Service.Wheel.ev_at.(id) = at);
    checkb
      (Printf.sprintf "peek ran the clock across a 2^%d-tick gap" e)
      true
      (Service.Wheel.now_tick r.w >= int_of_float burst);
    for _ = 1 to 4 do
      ref_sched r (!last +. (Sim.Rng.float rng *. gap)) (key ())
    done;
    while Live.cardinal r.live > 3 do
      pop_one ()
    done
  done;
  ref_drain r

(* Torture the event order: a bulk phase of duplicate-heavy random
   times (hitting every wheel level), then an interleaved phase where
   each pop triggers a fresh schedule — including zero-delay events
   landing in the live due arrays — then a dense phase: thousands of
   events within four ticks, so each of those slots chains dozens of
   chunks, drained while zero-delay and next-tick events keep
   arriving. *)
let test_wheel_ordering () =
  let r = wheel_ref ~capacity:64 in
  let rng = Sim.Rng.create 77L in
  for _ = 1 to 3_000 do
    (* Times from a few ticks to beyond level 3; integer-heavy so
       same-tick ties are common, with occasional fractional parts. *)
    let at =
      float_of_int (Sim.Rng.int rng 70_000_000)
      +. (if Sim.Rng.int rng 4 = 0 then Sim.Rng.float rng else 0.0)
    in
    ref_sched r at (Sim.Rng.int rng 64)
  done;
  for _ = 1 to 1_500 do
    let now = ref_pop r in
    (* Interleave: a zero-delay event at the popped instant and a
       short-delay one, both landing while the due arrays are live. *)
    ref_sched r now (Sim.Rng.int rng 64);
    ref_sched r
      (now +. float_of_int (Sim.Rng.int rng 1_000))
      (Sim.Rng.int rng 64)
  done;
  ref_drain r;
  let base = float_of_int (Service.Wheel.now_tick r.w + 1) in
  for _ = 1 to 6_000 do
    let at =
      base
      +. float_of_int (Sim.Rng.int rng 4)
      +. (if Sim.Rng.int rng 2 = 0 then Sim.Rng.float rng else 0.0)
    in
    ref_sched r at (Sim.Rng.int rng 16)
  done;
  for _ = 1 to 3_000 do
    let now = ref_pop r in
    ref_sched r now (Sim.Rng.int rng 16);
    if Sim.Rng.int rng 2 = 0 then
      ref_sched r (now +. 1.0 +. Sim.Rng.float rng) (Sim.Rng.int rng 16)
  done;
  ref_drain r;
  check_pool_bound r ~hint:64;
  wheel_gaps r rng

(* Window boundaries at every level: an empty wheel, a first event
   three ticks before a level-(l+1) window ends, and events a few
   level-l windows later, past the boundary, so their level-l slots sit
   before the clock's position there (wrapped into the next window).
   The wheel must step into that window and find them. At the top
   level, the step carries past the horizon's bits. *)
let test_wheel_boundaries () =
  let r = wheel_ref ~capacity:16 in
  let rng = Sim.Rng.create 5L in
  for l = 1 to 5 do
    let win = 1 lsl (8 * (l + 1)) and sub = 1 lsl (8 * l) in
    let t = ((Service.Wheel.now_tick r.w / win) + 1) * win - 3 in
    ref_sched r (float_of_int t) 0;
    for j = 1 to 3 do
      ref_sched r (float_of_int (t + (j * sub) + Sim.Rng.int rng sub)) j
    done;
    ref_sched r (float_of_int (t + 1)) 4;
    ref_drain r
  done;
  (* An empty wheel takes an event any distance ahead of its clock. *)
  ref_sched r (float_of_int (Service.Wheel.now_tick r.w) +. 0x1p50) 0;
  ref_drain r

(* Window starts: a cascade re-places a higher-level slot's events,
   and those at the window's first tick meet events that wrapped into
   the same level-0 slot from the previous window. Here a level-2 slot
   holds eight chunks of events over one 65,536-tick window, a third
   of them at its first tick with fractional times; just before the
   window opens, more events at that first tick arrive at level 0
   (delta < 256), and zero-delay events join the due arrays while they
   drain. Every event must still pop in (at, key, kseq) order. *)
let test_wheel_window_start () =
  let r = wheel_ref ~capacity:16 in
  let rng = Sim.Rng.create 91L in
  let w0 = 3 * 65_536 in
  for i = 1 to 8 * Service.Wheel.chunk do
    let tick = if i mod 3 = 0 then w0 else w0 + Sim.Rng.int rng 65_536 in
    ref_sched r (float_of_int tick +. Sim.Rng.float rng) (Sim.Rng.int rng 8)
  done;
  (* A marker 10 ticks before the window. *)
  ref_sched r (float_of_int (w0 - 10)) 0;
  checkb "marker pops first" true (ref_pop r = float_of_int (w0 - 10));
  for _ = 1 to 50 do
    ref_sched r (float_of_int w0 +. Sim.Rng.float rng) (Sim.Rng.int rng 8)
  done;
  let popped = ref 0 in
  while Service.Wheel.live r.w > 0 do
    let now = ref_pop r in
    incr popped;
    if !popped mod 7 = 0 then ref_sched r now (Sim.Rng.int rng 8)
  done;
  ref_drain r;
  check_pool_bound r ~hint:16

(* A sparse run never leaves the [create] reservation: events one per
   slot, popped as they come. *)
let test_wheel_sparse_pool () =
  let w = Service.Wheel.create ~capacity:1024 () in
  let cap = Service.Wheel.pool_capacity w in
  checki "reservation" 1024 cap;
  for i = 0 to 9_999 do
    Service.Wheel.schedule w
      ~at:(float_of_int ((i * 37) + 500))
      ~key:0 ~kseq:i ~kind:0 ~a:0 ~b:0;
    if i >= 8 then ignore (Service.Wheel.pop w : int)
  done;
  while Service.Wheel.pop w >= 0 do
    ()
  done;
  checki "pool stays at the reservation" cap (Service.Wheel.pool_capacity w)

(* The steady-state zero-allocation pin: after warmup (pool and due
   buffer at capacity), a schedule/pop cycle must not allocate a single
   minor word — the property the million-client driver leans on.
   [Gc.minor_words] counts every word; [Gc.quick_stat]'s count only
   moves at a minor collection, so it read 0 for a cycle that allocated
   unless a collection fell inside it. The event times are boxed before
   the count starts: a float argument is boxed by the caller, and that
   cost belongs to the caller. *)
let test_wheel_zero_alloc () =
  let w = Service.Wheel.create ~capacity:512 () in
  let times start =
    List.init 400 (fun i -> start +. float_of_int (i * 97 mod 10_000))
  in
  let schedule i at =
    Service.Wheel.schedule w ~at ~key:(i land 15) ~kseq:i ~kind:(i land 3)
      ~a:i ~b:0
  in
  let cycle times =
    List.iteri schedule times;
    while Service.Wheel.live w > 0 do
      ignore (Service.Wheel.pop w : int)
    done
  in
  cycle (times 0.0);
  let second = times 10_000.0 in
  let s0 = Gc.minor_words () in
  cycle second;
  let dw = Gc.minor_words () -. s0 in
  checkb
    (Printf.sprintf "wheel cycle allocated %g minor words" dw)
    true (dw = 0.0);
  checkb "virtual time advanced" true (Service.Wheel.now_tick w > 10_000)

(* Occupancy accessors: the live high-water mark is monotone and
   survives drains, the pool capacity tracks free-list growth past the
   initial capacity (refill boundaries), and the occupied-slot count
   rises and falls with the live population. *)
let test_wheel_occupancy () =
  let w = Service.Wheel.create ~capacity:8 () in
  checki "fresh high water" 0 (Service.Wheel.high_water w);
  checki "fresh slots" 0 (Service.Wheel.slots_occupied w);
  let cap0 = Service.Wheel.pool_capacity w in
  checkb "initial pool >= capacity" true (cap0 >= 8);
  (* Grow well past the initial pool: every event at a distinct tick so
     the slot count moves too. *)
  for i = 0 to 19 do
    Service.Wheel.schedule w
      ~at:(float_of_int (1 + (i * 3)))
      ~key:0 ~kseq:i ~kind:0 ~a:0 ~b:0
  done;
  checki "live" 20 (Service.Wheel.live w);
  checki "high water tracks live" 20 (Service.Wheel.high_water w);
  checkb "pool grew past the refill boundary" true
    (Service.Wheel.pool_capacity w > cap0);
  let slots_full = Service.Wheel.slots_occupied w in
  checkb "slots occupied while live" true (slots_full > 0);
  for _ = 1 to 10 do
    ignore (Service.Wheel.pop w)
  done;
  checki "high water survives pops" 20 (Service.Wheel.high_water w);
  checkb "slots shrink as the wheel drains" true
    (Service.Wheel.slots_occupied w <= slots_full);
  while Service.Wheel.live w > 0 do
    ignore (Service.Wheel.pop w)
  done;
  checki "drained slots" 0 (Service.Wheel.slots_occupied w);
  checki "drained high water" 20 (Service.Wheel.high_water w);
  (* A smaller second wave must not move the mark. *)
  for i = 0 to 4 do
    Service.Wheel.schedule w
      ~at:(float_of_int (100 + i))
      ~key:0 ~kseq:i ~kind:0 ~a:0 ~b:0
  done;
  checki "mark is monotone" 20 (Service.Wheel.high_water w)

(* {1 Telemetry}

   The sink must be an observer: attaching it must not change a single
   report byte (the off side of the zero-cost-off discipline), its
   windowed counters must sum to the report totals, and its cross-loop
   merge must be shard-count independent: whole on one domain, and once
   the per-loop wheel gauges (genuine per-loop infrastructure state)
   are stripped on several. *)

let tel_run ?telemetry cfg = Service.Driver.run ?telemetry cfg

let test_telemetry_off_identical () =
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let name = e.Rtas.Registry.name in
      for s = 1 to 120 do
        let cfg =
          {
            (Service.Driver.default ~algorithm:name) with
            Service.Driver.clients = 150;
            keys = 8;
            contenders = 4;
            seed = Int64.of_int s;
          }
        in
        let off = Service.Report.to_json (tel_run cfg) in
        let sink = Service.Telemetry.sink ~window:1000.0 () in
        let on = Service.Report.to_json (tel_run ~telemetry:sink cfg) in
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d: telemetry on = off" name s)
          off on
      done)
    Rtas.Registry.all

let test_telemetry_sums_match_totals () =
  List.iter
    (fun (chaos, events) ->
      let cfg = { (small_cfg ~chaos ()) with Service.Driver.events } in
      let sink = Service.Telemetry.sink ~window:500.0 () in
      let r = Service.Driver.run ~telemetry:sink cfg in
      match
        Service.Telemetry.counter_mismatches sink.Service.Telemetry.snapshot r
      with
      | [] -> ()
      | ms ->
          List.iter
            (fun (name, sum, total) ->
              Alcotest.failf "%s: windows sum to %d, report says %d" name sum
                total)
            ms)
    [ (0.0, `Wheel); (0.0, `Heap); (0.4, `Wheel); (0.4, `Heap) ];
  (* Retry-on-shed multiplies shed and retry events per client; the
     windowed sums must still land exactly on the totals. *)
  let cfg =
    {
      (Service.Driver.default ~algorithm:"tournament") with
      Service.Driver.clients = 1_000;
      keys = 2;
      zipf_s = 0.0;
      arrival = Service.Arrival.Poisson { rate = 2.0 };
      contenders = 2;
      max_waiters = 4;
      hold = 500.0;
      on_shed = `Retry;
      seed = 42L;
    }
  in
  let sink = Service.Telemetry.sink ~window:2000.0 () in
  let r = Service.Driver.run ~telemetry:sink cfg in
  checkb "retry-shed sums match" true
    (Service.Telemetry.counter_mismatches sink.Service.Telemetry.snapshot r
    = []);
  checkb "shed events recorded in windows" true
    (Obs.Timeseries.counter_sum sink.Service.Telemetry.snapshot "service.shed"
    > 0)

let test_telemetry_shards_identical () =
  let cfg =
    {
      (small_cfg ~chaos:0.2 ()) with
      Service.Driver.clients = 400;
      keys = 8;
      zipf_s = 0.7;
    }
  in
  let snap ?domains ~gauges shards =
    let sink = Service.Telemetry.sink ~window:1000.0 () in
    ignore
      (Service.Driver.run ?domains ~telemetry:sink
         { cfg with Service.Driver.shards });
    let s = sink.Service.Telemetry.snapshot in
    Obs.Timeseries.to_json
      (if gauges then s else { s with Obs.Timeseries.s_gauges = [] })
  in
  (* On one domain every shard count runs one event loop, so even its
     gauges are the 1-shard run's. *)
  let base = snap ~gauges:true 1 in
  Alcotest.(check string) "2 shards = 1 shard" base (snap ~gauges:true 2);
  Alcotest.(check string) "4 shards = 1 shard" base (snap ~gauges:true 4);
  (* Wheel gauges are per-loop engine state (each loop owns a wheel), so
     on two domains they are topology-dependent by design; everything
     else in the snapshot derives from per-key streams and must not
     move. *)
  Alcotest.(check string) "4 shards on 2 domains" (snap ~gauges:false 1)
    (snap ~domains:2 ~gauges:false 4)

let test_telemetry_trace () =
  let cfg = small_cfg ~chaos:0.2 () in
  let sink = Service.Telemetry.sink ~trace:true ~window:1000.0 () in
  ignore (Service.Driver.run ~telemetry:sink cfg);
  (match sink.Service.Telemetry.trace_json with
  | None -> Alcotest.fail "trace sink produced no trace"
  | Some t ->
      checkb "counter events" true (contains t "\"ph\":\"C\"");
      checkb "round spans" true (contains t "\"name\":\"round\""));
  let sink2 = Service.Telemetry.sink ~trace:true ~window:1000.0 () in
  Alcotest.check_raises "trace requires one shard"
    (Invalid_argument "Driver: telemetry trace requires shards = 1") (fun () ->
      ignore
        (Service.Driver.run ~telemetry:sink2
           { cfg with Service.Driver.shards = 2 }))

(* {1 Latency recording} *)

(* The log-bucketed histogram against the exact oracle on the same
   run: mean and max are exact by construction; percentiles are bucket
   midpoints within the bucket's relative width (1/32 here) of the
   exact nearest-rank value. *)
let test_latency_hist_close_to_exact () =
  let cfg =
    { (small_cfg ()) with Service.Driver.clients = 1_500; keys = 8 }
  in
  let lat mode =
    let r = Service.Driver.run { cfg with Service.Driver.latency = mode } in
    Option.get r.Service.Report.latency
  in
  let e = lat `Exact and h = lat `Hist in
  checki "same sample count" e.Service.Report.l_n h.Service.Report.l_n;
  Alcotest.(check (float 1e-9)) "mean exact" e.Service.Report.l_mean
    h.Service.Report.l_mean;
  Alcotest.(check (float 1e-9)) "max exact" e.Service.Report.l_max
    h.Service.Report.l_max;
  List.iter
    (fun (name, ev, hv) ->
      checkb
        (Printf.sprintf "%s: |%.3f - %.3f| within bucket width" name hv ev)
        true
        (Float.abs (hv -. ev) <= (ev /. 32.0) +. 1.0))
    [
      ("p50", e.Service.Report.l_p50, h.Service.Report.l_p50);
      ("p95", e.Service.Report.l_p95, h.Service.Report.l_p95);
      ("p99", e.Service.Report.l_p99, h.Service.Report.l_p99);
      ("p999", e.Service.Report.l_p999, h.Service.Report.l_p999);
    ]

(* Merge associativity and commutativity, both modes: shard partials
   must combine into the same snapshot regardless of grouping. In the
   second input the partials cover disjoint magnitudes (values below 8,
   values near 1e6, both), so a log-bucket merge grows the shorter
   counts array whichever side it is on. *)
let test_histo_merge_associative () =
  let spread i j =
    1.0 +. float_of_int (((i * 7919) + (j * 104729)) mod 50_000)
  in
  let disjoint i j =
    let small = float_of_int ((i + j) mod 8)
    and large = 1e6 +. float_of_int (j * 37) in
    match i with
    | 0 -> small
    | 1 -> large
    | _ -> if j mod 2 = 0 then small else large
  in
  List.iter
    (fun (mode, sample) ->
      let samples i = List.init 200 (sample i) in
      let mk i =
        let h = Service.Histo.create mode in
        List.iter (Service.Histo.observe h) (samples i);
        h
      in
      let snap order =
        let acc = Service.Histo.create mode in
        List.iter
          (fun i -> Service.Histo.merge_into ~into:acc (mk i))
          order;
        Option.get (Service.Histo.snapshot acc)
      in
      let a = snap [ 0; 1; 2 ] in
      checkb "merge order invariant" true
        (a = snap [ 2; 0; 1 ] && a = snap [ 1; 2; 0 ]);
      let direct = mk 0 in
      List.iter (Service.Histo.observe direct) (samples 1 @ samples 2);
      checkb "merge = one histogram of every sample" true
        (Some a = Service.Histo.snapshot direct);
      (* Nested grouping: (h0 + h1) + h2 = h0 + (h1 + h2). *)
      let left =
        let x = mk 0 in
        Service.Histo.merge_into ~into:x (mk 1);
        let acc = Service.Histo.create mode in
        Service.Histo.merge_into ~into:acc x;
        Service.Histo.merge_into ~into:acc (mk 2);
        Option.get (Service.Histo.snapshot acc)
      in
      let right =
        let y = mk 1 in
        Service.Histo.merge_into ~into:y (mk 2);
        let acc = Service.Histo.create mode in
        Service.Histo.merge_into ~into:acc (mk 0);
        Service.Histo.merge_into ~into:acc y;
        Option.get (Service.Histo.snapshot acc)
      in
      checkb "merge associative" true (left = right && left = a))
    [ (`Exact, spread); (`Log, spread); (`Exact, disjoint); (`Log, disjoint) ]

(* A steady-state observe allocates nothing in either mode: the exact
   mode's running sum and max live in a float array, so neither is
   boxed, and its sample array has room for the measured batch. The
   samples are a list so that each float is boxed before the count
   starts. *)
let rec observe_all h = function
  | [] -> ()
  | v :: rest ->
      Service.Histo.observe h v;
      observe_all h rest

let test_histo_observe_allocates_nothing () =
  let vs = List.init 100 (fun i -> float_of_int (i * 37 mod 5000)) in
  List.iter
    (fun mode ->
      let h = Service.Histo.create mode in
      observe_all h vs;
      let w0 = Gc.minor_words () in
      observe_all h vs;
      let dw = Gc.minor_words () -. w0 in
      checkb
        (Printf.sprintf "%s: 100 observes allocated %g minor words"
           (Service.Histo.mode_name h) dw)
        true (dw = 0.0))
    [ `Exact; `Log ]

(* {1 The atomic driver} *)

(* The atomic runs below: 60 clients on 4 keys, 3 worker domains. *)
let mc_cfg () =
  {
    (Service.Driver.default ~algorithm:"tournament") with
    Service.Driver.clients = 60;
    keys = 4;
    arrival = Service.Arrival.Poisson { rate = 0.01 };
    seed = 5L;
  }

let mc_run ?telemetry cfg =
  Service.Mc_driver.run ?telemetry ~domains:3 ~timeout:60.0 cfg

let test_mc_driver_smoke () =
  let r = mc_run (mc_cfg ()) in
  checkb "no livelock" false r.Service.Report.livelocked;
  checkb "balanced" true (Service.Report.balanced r.Service.Report.counts);
  checki "all complete without chaos" 60
    r.Service.Report.counts.Service.Report.completed

let test_mc_driver_chaos_no_wedge () =
  let r =
    mc_run
      { (mc_cfg ()) with Service.Driver.deadline = 5_000.0; crash_prob = 0.4 }
  in
  (* The run finishing at all (inside the watchdog bound) is the no-wedge
     property: every client reached a terminal state even though holders
     crashed without releasing. *)
  checkb "no livelock under chaos" false r.Service.Report.livelocked;
  checkb "balanced under chaos" true
    (Service.Report.balanced r.Service.Report.counts)

(* The atomic driver records the same telemetry schema on wall-clock
   microsecond windows; arrivals and completions must still sum to the
   report totals. *)
let test_mc_driver_telemetry () =
  let sink = Service.Telemetry.sink ~window:1_000_000.0 () in
  let r = mc_run ~telemetry:sink (mc_cfg ()) in
  checkb "no livelock" false r.Service.Report.livelocked;
  let snap = sink.Service.Telemetry.snapshot in
  checkb "windows recorded" true (Obs.Timeseries.windows snap > 0);
  checki "arrivals sum to clients" 60
    (Obs.Timeseries.counter_sum snap "service.arrivals");
  checki "completions sum to the report total"
    r.Service.Report.counts.Service.Report.completed
    (Obs.Timeseries.counter_sum snap "service.completed");
  checkb "latency quantiles recorded" true
    (List.mem_assoc "service.latency_ticks"
       snap.Obs.Timeseries.s_quantiles)

(* The atomic backend reads none of the sim-only fields, so setting one
   away from its default is an error that names it. Each config would
   take about 100 s of wall clock to serve (one arrival per second), so
   a check made after the workers started would show in the time. *)
let test_mc_driver_rejects_sim_only () =
  let cfg =
    {
      (mc_cfg ()) with
      Service.Driver.clients = 100;
      arrival = Service.Arrival.Poisson { rate = 1e-6 };
    }
  in
  let t0 = Unix.gettimeofday () in
  let rejects field ?telemetry c =
    match mc_run ?telemetry c with
    | _ -> Alcotest.failf "%s was accepted" field
    | exception Invalid_argument msg ->
        checkb (Printf.sprintf "%s: %S names it" field msg) true
          (contains msg field)
  in
  rejects "plan" { cfg with plan = Some [ Fault.Plan.storm 0.1 ] };
  rejects "kernel" { cfg with kernel = `Flat };
  rejects "events" { cfg with events = `Heap };
  rejects "shards" { cfg with shards = 2 };
  rejects "on_shed" { cfg with on_shed = `Retry };
  rejects "max_waiters" { cfg with max_waiters = 8 };
  rejects "contenders" { cfg with contenders = 3 };
  rejects "trace"
    ~telemetry:(Service.Telemetry.sink ~trace:true ~window:1000.0 ())
    cfg;
  let dt = Unix.gettimeofday () -. t0 in
  checkb (Printf.sprintf "rejected before any worker ran (%.3f s)" dt) true
    (dt < 10.0)

(* Latencies record in the config's mode, by the sim driver's rule. *)
let test_mc_driver_latency_mode () =
  let mode latency =
    match (mc_run { (mc_cfg ()) with Service.Driver.latency }).latency with
    | Some l -> l.Service.Report.l_mode
    | None -> Alcotest.fail "nothing completed"
  in
  Alcotest.(check string) "hist" "hist" (mode `Hist);
  Alcotest.(check string) "auto at 60 clients" "exact" (mode `Auto)

(* {1 Workload generators} *)

let test_zipf () =
  let z = Service.Zipf.create ~n:8 ~s:0.0 in
  Array.iteri
    (fun i p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "uniform pmf %d" i)
        0.125 p)
    (Array.init 8 (Service.Zipf.pmf z));
  let z = Service.Zipf.create ~n:8 ~s:1.5 in
  checkb "skewed head" true (Service.Zipf.pmf z 0 > 4.0 *. Service.Zipf.pmf z 7);
  let draw seed =
    let rng = Sim.Rng.create seed in
    List.init 200 (fun _ -> Service.Zipf.sample z rng)
  in
  checkb "sampling deterministic" true (draw 3L = draw 3L);
  List.iter
    (fun k -> checkb "sample in range" true (k >= 0 && k < 8))
    (draw 4L)

(* The O(1) alias sampler against the CDF binary-search oracle. For a
   uniform power-of-two keyspace the two are draw-for-draw identical
   (the alias table degenerates to the identity, and both floor the
   same uniform); for skewed distributions the alias draw must match
   the exact pmf to chi-square precision. *)
let test_zipf_alias_matches_cdf () =
  let z = Service.Zipf.create ~n:8 ~s:0.0 in
  let r1 = Sim.Rng.create 5L and r2 = Sim.Rng.create 5L in
  for i = 1 to 10_000 do
    checki
      (Printf.sprintf "uniform draw %d: alias = cdf" i)
      (Service.Zipf.sample_cdf z r2)
      (Service.Zipf.sample z r1)
  done

let test_zipf_alias_chi_square () =
  let n = 64 in
  let z = Service.Zipf.create ~n ~s:1.1 in
  let draws = 200_000 in
  let counts = Array.make n 0 in
  let rng = Sim.Rng.create 9L in
  for _ = 1 to draws do
    let k = Service.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  let chi2 = ref 0.0 in
  for i = 0 to n - 1 do
    let expect = Service.Zipf.pmf z i *. float_of_int draws in
    let d = float_of_int counts.(i) -. expect in
    chi2 := !chi2 +. (d *. d /. expect)
  done;
  (* df = 63: the 99.9th percentile of chi^2_63 is ~103.4. The seed is
     fixed, so this is a deterministic regression pin, not a flaky
     statistical test. *)
  checkb (Printf.sprintf "chi-square %.1f below 110" !chi2) true (!chi2 < 110.0)

let test_arrival () =
  let times kind seed =
    let t = Service.Arrival.create kind (Sim.Rng.create seed) in
    List.init 300 (fun _ -> Service.Arrival.next t)
  in
  List.iter
    (fun kind ->
      let ts = times kind 9L in
      checkb "deterministic" true (ts = times kind 9L);
      ignore
        (List.fold_left
           (fun prev t ->
             checkb "strictly increasing" true (t > prev);
             t)
           0.0 ts))
    [
      Service.Arrival.Poisson { rate = 0.05 };
      Service.Arrival.Bursty
        { rate = 0.01; burst_len = 100.0; idle_len = 400.0; boost = 10.0 };
    ]

(* The offered load, pinned: the MD5 of the first 10,000 (arrival, key)
   pairs of the client stream (Poisson 20/tick, 256 keys), one line
   ["%h %d"] per client, at seeds 1-3 and two Zipf exponents. The
   digests were taken from the schedule both drivers replayed when it
   was still drawn up front into per-client arrays; the atomic driver's
   outcomes are nondeterministic, so this is what pins its load. *)
let test_offered_load () =
  List.iter
    (fun (seed, zipf_s, want) ->
      let cl =
        Service.Clients.create ~seed
          (Service.Arrival.Poisson { rate = 20.0 })
          ~keys:256 ~zipf_s 10_000
      in
      let b = Buffer.create (10_000 * 32) in
      while cl.Service.Clients.index < 10_000 do
        Buffer.add_string b
          (Printf.sprintf "%h %d\n" cl.Service.Clients.time.at
             cl.Service.Clients.key);
        Service.Clients.advance cl
      done;
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld, zipf %g" seed zipf_s)
        want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (1L, 0.5, "430997708ab823e1bfdabb645a9a43e8");
      (2L, 0.5, "c488b30b0f96c87832627f2a53b90554");
      (3L, 0.5, "102f7e644aa42ce86b069eee6e3affef");
      (1L, 0.99, "ec53ea36e78bb074b1924be9b851ee76");
      (2L, 0.99, "2d119608791c33cd02886bbef0c1b0f4");
      (3L, 0.99, "a60d4cacc0bb6563edf4788a446aa2bb");
    ]

let test_backoff () =
  (* The fused jitter draw must equal the composed derive/derive/draw
     form bit-for-bit: the fusion exists only to skip boxing. *)
  List.iter
    (fun (seed, client, attempt) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "jitter fusion (%Ld,%d,%d)" seed client attempt)
        (Sim.Rng.float_of_seed
           (Sim.Rng.derive (Sim.Rng.derive seed ~stream:client) ~stream:attempt))
        (Sim.Rng.jitter_of_seed seed ~client ~attempt))
    [ (11L, 4, 1); (11L, 4, 7); (42L, 0, 1); (0L, 999999, 63); (-3L, 17, 12) ];
  let exp = Service.Backoff.Exp { base = 8.0; cap = 512.0 } in
  let d a = Service.Backoff.delay exp ~seed:11L ~client:4 ~attempt:a in
  Alcotest.(check (float 0.0)) "deterministic" (d 3) (d 3);
  for a = 1 to 12 do
    let raw = Float.min 512.0 (8.0 *. (2.0 ** float_of_int (a - 1))) in
    let v = d a in
    checkb
      (Printf.sprintf "attempt %d in [raw/2, raw)" a)
      true
      (v >= raw /. 2.0 && v < raw)
  done;
  checkb "clients decorrelated" true
    (Service.Backoff.delay exp ~seed:11L ~client:5 ~attempt:3 <> d 3);
  Alcotest.(check (float 0.0))
    "immediate" 1.0
    (Service.Backoff.delay Service.Backoff.Immediate ~seed:11L ~client:0
       ~attempt:1);
  let r =
    Service.Backoff.delay
      (Service.Backoff.Rand { max = 64.0 })
      ~seed:11L ~client:0 ~attempt:9
  in
  checkb "rand in [1, max)" true (r >= 1.0 && r < 64.0)

(* [Backoff.delay] compares with monomorphic operators, not Stdlib's
   polymorphic [max] or [Float.min] / [Float.max]; for every validated
   policy the delay must be the float the old expressions give, bit
   for bit, including attempts below 1 and past the 62-doubling cap,
   and the largest caps [validate] allows, just below 2^47 ticks. *)
let test_backoff_monomorphic () =
  let reference t ~seed ~client ~attempt =
    let attempt = max 1 attempt in
    let u () = Sim.Rng.jitter_of_seed seed ~client ~attempt in
    match t with
    | Service.Backoff.Immediate -> 1.0
    | Service.Backoff.Exp { base; cap } ->
        let raw =
          if attempt >= 63 then cap
          else Float.min cap (base *. float_of_int (1 lsl (attempt - 1)))
        in
        let u = u () in
        Float.max 1.0 ((raw /. 2.0) +. (u *. raw /. 2.0))
    | Service.Backoff.Rand { max } -> 1.0 +. (u () *. (max -. 1.0))
  in
  let policies =
    Service.Backoff.
      [
        Immediate;
        Exp { base = 8.0; cap = 512.0 };
        Exp { base = 8.0; cap = 256.0 };
        Exp { base = 0.25; cap = 3.0 };
        Exp { base = 0.5; cap = 0.5 };
        Exp { base = 1e-300; cap = 1e-300 };
        Exp { base = 0x1p46; cap = Float.pred 0x1p47 };
        Exp { base = 1.0; cap = Float.pred 0x1p47 };
        Rand { max = 1.0 };
        Rand { max = 64.0 };
        Rand { max = Float.pred 0x1p47 };
      ]
  in
  List.iter
    (fun p ->
      Service.Backoff.validate p;
      List.iter
        (fun (seed, client) ->
          for attempt = -1 to 70 do
            let want = reference p ~seed ~client ~attempt
            and got = Service.Backoff.delay p ~seed ~client ~attempt in
            if Int64.bits_of_float want <> Int64.bits_of_float got then
              Alcotest.failf "%s seed %Ld client %d attempt %d: %h <> %h"
                (Service.Backoff.describe p) seed client attempt got want
          done)
        [ (11L, 0); (11L, 4); (-3L, 999_999); (42L, 17) ])
    policies

let test_registry_dual () =
  (* Every entry runs on both backends, with one register count. *)
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let sim = Sim.Memory.create () and mc = Backend.Atomic_mem.create () in
      let (_ : Leaderelect.Le.t) = e.Rtas.Registry.make sim ~n:8 in
      let (_ : Backend.Atomic_mem.ctx Leaderelect.Le.elect) =
        e.Rtas.Registry.make_mc mc ~n:8
      in
      checki
        (e.Rtas.Registry.name ^ ": same register count")
        (Sim.Memory.allocated sim)
        (Backend.Atomic_mem.allocated mc))
    Rtas.Registry.all

(* {1 Config validation}

   Every float field the service validates must also reject NaN and
   both infinities, with an error that names the field. Otherwise an
   infinite deadline lands in the report as [inf] (not JSON) and a NaN
   hold dies inside the event loop. The times an event lies ahead on
   the timing wheel (the deadline, the hold and the backoff ceilings)
   must also stay below half its 2^48-tick horizon, the other half
   holding a round's span: past the horizon the run used to fail
   mid-way, and from 2^62 ticks the wheel's tick wrapped and it popped
   events out of order. *)

let test_non_finite_config_rejected () =
  let cfg = small_cfg () in
  let run c = ignore (Service.Driver.run c) in
  let arrival a = run { cfg with Service.Driver.arrival = a } in
  let bursty ?(burst_len = 100.0) ?(idle_len = 400.0) ?(boost = 10.0) () =
    arrival (Service.Arrival.Bursty { rate = 0.01; burst_len; idle_len; boost })
  in
  let backoff b = run { cfg with Service.Driver.backoff = b } in
  let mc ?timeout c = ignore (Service.Mc_driver.run ?timeout c) in
  let non_finite = [ Float.nan; Float.infinity; Float.neg_infinity ] in
  let past_horizon = non_finite @ [ 0x1p47; 0x1p48; 1e15; 0x1p62; 1e300 ] in
  let cases =
    [
      ("deadline", past_horizon, fun x -> run { cfg with Service.Driver.deadline = x });
      ("hold", past_horizon, fun x -> run { cfg with Service.Driver.hold = x });
      ("zipf_s", non_finite, fun x -> run { cfg with Service.Driver.zipf_s = x });
      ("rate", non_finite, fun x -> arrival (Service.Arrival.Poisson { rate = x }));
      ("burst_len", non_finite, fun x -> bursty ~burst_len:x ());
      ("idle_len", non_finite, fun x -> bursty ~idle_len:x ());
      ("boost", non_finite, fun x -> bursty ~boost:x ());
      ( "base",
        non_finite,
        fun x -> backoff (Service.Backoff.Exp { base = x; cap = 512.0 }) );
      ( "cap",
        past_horizon,
        fun x -> backoff (Service.Backoff.Exp { base = 8.0; cap = x }) );
      ("max", past_horizon, fun x -> backoff (Service.Backoff.Rand { max = x }));
      ( "deadline",
        past_horizon,
        fun x -> mc { (mc_cfg ()) with Service.Driver.deadline = x } );
      ( "hold",
        past_horizon,
        fun x -> mc { (mc_cfg ()) with Service.Driver.hold = x } );
      ( "zipf_s",
        non_finite,
        fun x -> mc { (mc_cfg ()) with Service.Driver.zipf_s = x } );
      ("timeout", non_finite, fun x -> mc ~timeout:x (mc_cfg ()));
      ("s", non_finite, fun x -> ignore (Service.Zipf.create ~n:8 ~s:x));
    ]
  in
  List.iter
    (fun (field, values, set) ->
      List.iter
        (fun x ->
          match set x with
          | () -> Alcotest.failf "%s = %g was accepted" field x
          | exception Invalid_argument msg ->
              checkb
                (Printf.sprintf "%s = %g: %S names the field" field x msg)
                true
                (contains msg (field ^ " must")))
        values)
    cases;
  (* Just below half the horizon is accepted: the other half holds a
     round's span. *)
  run { cfg with Service.Driver.deadline = Float.pred 0x1p47 };
  run { cfg with Service.Driver.hold = Float.pred 0x1p47; clients = 20 }

let () =
  Alcotest.run "service"
    [
      ( "resettable",
        [
          Alcotest.test_case "state machine" `Quick test_stamp_transitions;
          Alcotest.test_case "rounds = fresh one-shots (120 seeds)" `Slow
            test_round_isolated_vs_fresh;
          Alcotest.test_case "atomic rounds unique winner" `Slow
            test_atomic_rounds_unique_winner;
        ] );
      ( "driver",
        [
          Alcotest.test_case "bit-deterministic" `Quick
            test_driver_deterministic;
          Alcotest.test_case "flat kernel = effect kernel" `Quick
            test_driver_flat_matches_effect;
          Alcotest.test_case "flat kernel rejects fault plans" `Quick
            test_driver_flat_rejects_plan;
          Alcotest.test_case "every client accounted" `Quick
            test_driver_accounts_every_client;
          Alcotest.test_case "chaos recovers wedged keys" `Quick
            test_driver_chaos_recovers;
          Alcotest.test_case "sheds overload" `Quick test_driver_sheds_overload;
          Alcotest.test_case "retry-on-shed: partition + engine parity" `Quick
            test_driver_retry_on_shed;
          Alcotest.test_case "shards are report-invisible" `Quick
            test_driver_shards_identical;
          Alcotest.test_case "allocation ceiling, telemetry off" `Slow
            test_driver_alloc_ceiling;
          Alcotest.test_case "non-finite config fields rejected" `Quick
            test_non_finite_config_rejected;
          Alcotest.test_case "domains < 1 rejected" `Quick
            test_driver_rejects_domains;
          Alcotest.test_case "event pool tracks in-flight events" `Quick
            test_driver_pool_tracks_in_flight;
          Alcotest.test_case "event pool of one loop on one domain" `Quick
            test_driver_pool_one_loop;
          Alcotest.test_case "memory follows clients in flight" `Quick
            test_driver_memory_follows_in_flight;
        ] );
      ( "golden",
        [
          Alcotest.test_case "report digests, 12 configs x 3 seeds" `Quick
            test_report_digests_pinned;
          Alcotest.test_case "report digests, many keys on one arena" `Quick
            test_shared_arena_digests_pinned;
          Alcotest.test_case "telemetry export digests, 4 configs x 3 seeds"
            `Quick test_export_digests_pinned;
          Alcotest.test_case "one domain: export = 1-shard export" `Quick
            test_export_one_loop;
          Alcotest.test_case "report digests, lease and release ties" `Quick
            test_lease_digests_pinned;
          Alcotest.test_case "report digests, equal-time arrivals" `Quick
            test_tied_arrival_digests_pinned;
          Alcotest.test_case
            "workload export digests, 4 configs x 3 seeds" `Quick
            test_workload_export_digests_pinned;
          Alcotest.test_case "loop lag 0 on every golden config" `Quick
            test_golden_lag_zero;
        ] );
      ( "events",
        [
          Alcotest.test_case "wheel = heap (120 seeds per dual entry)" `Slow
            test_wheel_matches_heap;
          Alcotest.test_case "wheel = heap under chaos (120 seeds)" `Slow
            test_wheel_matches_heap_chaos;
          Alcotest.test_case "wheel = heap, poison and dense overload runs"
            `Quick test_wheel_matches_heap_cli_runs;
          Alcotest.test_case "wheel ordering torture" `Quick
            test_wheel_ordering;
          Alcotest.test_case "wheel window start, multi-chunk level 2" `Quick
            test_wheel_window_start;
          Alcotest.test_case "wheel sparse run keeps its reservation" `Quick
            test_wheel_sparse_pool;
          Alcotest.test_case "wheel steady state allocates nothing" `Quick
            test_wheel_zero_alloc;
          Alcotest.test_case "wheel occupancy accessors" `Quick
            test_wheel_occupancy;
          Alcotest.test_case "wheel window boundaries at every level" `Quick
            test_wheel_boundaries;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "off = on, byte for byte (120 seeds per entry)"
            `Slow test_telemetry_off_identical;
          Alcotest.test_case "windowed sums = report totals" `Quick
            test_telemetry_sums_match_totals;
          Alcotest.test_case "shard merge is shard-count independent" `Quick
            test_telemetry_shards_identical;
          Alcotest.test_case "perfetto trace at one shard" `Quick
            test_telemetry_trace;
        ] );
      ( "latency",
        [
          Alcotest.test_case "histogram tracks exact" `Quick
            test_latency_hist_close_to_exact;
          Alcotest.test_case "merge associative + commutative" `Quick
            test_histo_merge_associative;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_histo_observe_allocates_nothing;
        ] );
      ( "mc-driver",
        [
          Alcotest.test_case "smoke" `Slow test_mc_driver_smoke;
          Alcotest.test_case "chaos no wedge" `Slow
            test_mc_driver_chaos_no_wedge;
          Alcotest.test_case "telemetry sums on wall-clock windows" `Slow
            test_mc_driver_telemetry;
          Alcotest.test_case "atomic backend rejects sim-only settings" `Quick
            test_mc_driver_rejects_sim_only;
          Alcotest.test_case "atomic backend honours latency mode" `Slow
            test_mc_driver_latency_mode;
        ] );
      ( "workload",
        [
          Alcotest.test_case "zipf" `Quick test_zipf;
          Alcotest.test_case "zipf alias = cdf oracle" `Quick
            test_zipf_alias_matches_cdf;
          Alcotest.test_case "zipf alias chi-square" `Quick
            test_zipf_alias_chi_square;
          Alcotest.test_case "arrival" `Quick test_arrival;
          Alcotest.test_case "offered load unchanged" `Quick test_offered_load;
          Alcotest.test_case "backoff" `Quick test_backoff;
          Alcotest.test_case "backoff = old expressions, bit for bit" `Quick
            test_backoff_monomorphic;
          Alcotest.test_case "registry dual" `Quick test_registry_dual;
        ] );
    ]
