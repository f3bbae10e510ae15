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
   schedule seed. 120 seeds x 3 rounds per dual-backend entry. *)

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
    (Rtas.Registry.dual ())

(* {1 Atomic rounds: exactly one winner per round} *)

let test_atomic_rounds_unique_winner () =
  let domains = 4 in
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let make_mc = Option.get e.Rtas.Registry.make_mc in
      let module E = struct
        type instance = Backend.Atomic_mem.ctx Leaderelect.Le.elect

        let fresh ~key:_ ~round:_ =
          make_mc (Backend.Atomic_mem.create ()) ~n:domains
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
                  inst.Leaderelect.Le.elect
                    (Backend.Atomic_mem.ctx ~rng ~slot ()))
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
    (Rtas.Registry.dual ())

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
   JSON report is byte-identical. 120 seeds per dual-backend entry,
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
    (Rtas.Registry.dual ())

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

(* {1 The wheel in isolation} *)

(* Torture the event order: a bulk phase of duplicate-heavy random
   times (hitting every wheel level), then an interleaved phase where
   each pop triggers a fresh schedule — including zero-delay events
   landing in the live due buffer. Every popped event must come out in
   exact (at, key, kseq) lexicographic order. *)
let test_wheel_ordering () =
  let w = Service.Wheel.create ~capacity:64 () in
  let rng = Sim.Rng.create 77L in
  (* Online reference: the set of currently-live events; a correct pop
     is the (at, key, kseq) minimum of exactly that set. (A plain
     offline sort would be wrong: an event scheduled at an
     already-popped instant legitimately pops after its same-time,
     larger-ord predecessors.) *)
  let live = ref [] in
  let sched at key kseq =
    Service.Wheel.schedule w ~at ~key ~kseq ~kind:(kseq land 3)
      ~a:(key + kseq) ~b:kseq;
    live := (at, key, kseq) :: !live
  in
  let kseq = ref 0 in
  for _ = 1 to 3_000 do
    (* Times from a few ticks to beyond level 3; integer-heavy so
       same-tick ties are common, with occasional fractional parts. *)
    let at =
      float_of_int (Sim.Rng.int rng 70_000_000)
      +. (if Sim.Rng.int rng 4 = 0 then Sim.Rng.float rng else 0.0)
    in
    incr kseq;
    sched at (Sim.Rng.int rng 64) !kseq
  done;
  let pop1 () =
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
    let min_live =
      List.fold_left min (List.hd !live) (List.tl !live)
    in
    checkb "pop is the minimum live event" true (min_live = (at, key, ks));
    live := List.filter (fun e -> e <> min_live) !live;
    at
  in
  for _ = 1 to 1_500 do
    let now = pop1 () in
    (* Interleave: a zero-delay event at the popped instant and a
       short-delay one, both landing while the due buffer is live. *)
    incr kseq;
    sched now (Sim.Rng.int rng 64) !kseq;
    incr kseq;
    sched (now +. float_of_int (Sim.Rng.int rng 1_000)) (Sim.Rng.int rng 64)
      !kseq
  done;
  while Service.Wheel.live w > 0 do
    ignore (pop1 ())
  done;
  checkb "every scheduled event popped" true (!live = [])

(* The steady-state zero-allocation pin: after warmup (pool and due
   buffer at capacity), a schedule/pop cycle must not allocate a single
   minor word — the property the million-client driver leans on. *)
let test_wheel_zero_alloc () =
  let w = Service.Wheel.create ~capacity:512 () in
  let cycle start =
    for i = 0 to 399 do
      Service.Wheel.schedule w
        ~at:(start +. float_of_int (i * 97 mod 10_000))
        ~key:(i land 15) ~kseq:i ~kind:(i land 3) ~a:i ~b:0
    done;
    let last = ref 0.0 in
    while Service.Wheel.live w > 0 do
      let id = Service.Wheel.pop w in
      last := w.Service.Wheel.ev_at.(id)
    done;
    !last
  in
  let t = cycle 0.0 in
  let s0 = (Gc.quick_stat ()).Gc.minor_words in
  let t = cycle t in
  let dw = (Gc.quick_stat ()).Gc.minor_words -. s0 in
  checkb "wheel cycles allocation-free after warmup" true (dw = 0.0);
  checkb "virtual time advanced" true (t > 0.0)

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
   windowed counters must sum to the report totals, and its cross-shard
   merge must be shard-count independent once the per-shard wheel
   gauges (genuine per-shard infrastructure state) are stripped. *)

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
    (Rtas.Registry.dual ())

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
  let snap ?domains shards =
    let sink = Service.Telemetry.sink ~window:1000.0 () in
    ignore
      (Service.Driver.run ?domains ~telemetry:sink
         { cfg with Service.Driver.shards });
    (* Wheel gauges are per-shard engine state (each shard owns a
       wheel), so they are topology-dependent by design; everything
       else in the snapshot derives from per-key streams and must not
       move. *)
    Obs.Timeseries.to_json
      { sink.Service.Telemetry.snapshot with Obs.Timeseries.s_gauges = [] }
  in
  let base = snap 1 in
  Alcotest.(check string) "2 shards = 1 shard" base (snap 2);
  Alcotest.(check string) "4 shards = 1 shard" base (snap 4);
  Alcotest.(check string) "4 shards on 2 domains" base (snap ~domains:2 4)

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
   must combine into the same snapshot regardless of grouping. *)
let test_histo_merge_associative () =
  List.iter
    (fun mode ->
      let samples i =
        List.init 200 (fun j ->
            1.0 +. float_of_int (((i * 7919) + (j * 104729)) mod 50_000))
      in
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
    [ `Exact; `Log ]

(* {1 The atomic driver} *)

let test_mc_driver_smoke () =
  let cfg =
    {
      (Service.Mc_driver.default ~algorithm:"tournament") with
      Service.Mc_driver.clients = 60;
      keys = 4;
      workers = 3;
      arrival = Service.Arrival.Poisson { rate = 0.01 };
      timeout = 60.0;
      seed = 5L;
    }
  in
  let r = Service.Mc_driver.run cfg in
  checkb "no livelock" false r.Service.Report.livelocked;
  checkb "balanced" true (Service.Report.balanced r.Service.Report.counts);
  checki "all complete without chaos" 60
    r.Service.Report.counts.Service.Report.completed

let test_mc_driver_chaos_no_wedge () =
  let cfg =
    {
      (Service.Mc_driver.default ~algorithm:"tournament") with
      Service.Mc_driver.clients = 60;
      keys = 4;
      workers = 3;
      arrival = Service.Arrival.Poisson { rate = 0.01 };
      deadline = 5_000.0;
      crash_prob = 0.4;
      timeout = 60.0;
      seed = 5L;
    }
  in
  let r = Service.Mc_driver.run cfg in
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
  let cfg =
    {
      (Service.Mc_driver.default ~algorithm:"tournament") with
      Service.Mc_driver.clients = 60;
      keys = 4;
      workers = 3;
      arrival = Service.Arrival.Poisson { rate = 0.01 };
      timeout = 60.0;
      seed = 5L;
    }
  in
  let sink = Service.Telemetry.sink ~window:1_000_000.0 () in
  let r = Service.Mc_driver.run ~telemetry:sink cfg in
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

let test_registry_dual () =
  let dual = Rtas.Registry.dual () in
  checkb "some dual entries" true (List.length dual >= 2);
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      checkb (e.Rtas.Registry.name ^ " has mc port") true
        (Option.is_some e.Rtas.Registry.make_mc))
    dual;
  checkb "dual names subset" true
    (List.for_all
       (fun n -> List.mem n (Rtas.Registry.names ()))
       (Rtas.Registry.dual_names ()))

(* {1 Config validation}

   Every float field the service validates must also reject NaN and
   both infinities, with an error that names the field. Otherwise an
   infinite deadline lands in the report as [inf] (not JSON) and a NaN
   hold dies inside the event loop. *)

let test_non_finite_config_rejected () =
  let cfg = small_cfg () and mc = Service.Mc_driver.default ~algorithm:"log*" in
  let run c = ignore (Service.Driver.run c) in
  let arrival a = run { cfg with Service.Driver.arrival = a } in
  let bursty ?(burst_len = 100.0) ?(idle_len = 400.0) ?(boost = 10.0) () =
    arrival (Service.Arrival.Bursty { rate = 0.01; burst_len; idle_len; boost })
  in
  let backoff b = run { cfg with Service.Driver.backoff = b } in
  let mc_validate c = Service.Mc_driver.validate c in
  let cases =
    [
      ("deadline", fun x -> run { cfg with Service.Driver.deadline = x });
      ("hold", fun x -> run { cfg with Service.Driver.hold = x });
      ("zipf_s", fun x -> run { cfg with Service.Driver.zipf_s = x });
      ("rate", fun x -> arrival (Service.Arrival.Poisson { rate = x }));
      ("burst_len", fun x -> bursty ~burst_len:x ());
      ("idle_len", fun x -> bursty ~idle_len:x ());
      ("boost", fun x -> bursty ~boost:x ());
      ("base", fun x -> backoff (Service.Backoff.Exp { base = x; cap = 512.0 }));
      ("cap", fun x -> backoff (Service.Backoff.Exp { base = 8.0; cap = x }));
      ("max", fun x -> backoff (Service.Backoff.Rand { max = x }));
      ("deadline", fun x -> mc_validate { mc with Service.Mc_driver.deadline = x });
      ("hold", fun x -> mc_validate { mc with Service.Mc_driver.hold = x });
      ("zipf_s", fun x -> mc_validate { mc with Service.Mc_driver.zipf_s = x });
      ("timeout", fun x -> mc_validate { mc with Service.Mc_driver.timeout = x });
      ("s", fun x -> ignore (Service.Zipf.create ~n:8 ~s:x));
    ]
  in
  List.iter
    (fun (field, set) ->
      List.iter
        (fun x ->
          match set x with
          | () -> Alcotest.failf "%s = %g was accepted" field x
          | exception Invalid_argument msg ->
              checkb
                (Printf.sprintf "%s = %g: %S names the field" field x msg)
                true
                (contains msg (field ^ " must")))
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    cases

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
        ] );
      ( "events",
        [
          Alcotest.test_case "wheel = heap (120 seeds per dual entry)" `Slow
            test_wheel_matches_heap;
          Alcotest.test_case "wheel = heap under chaos (120 seeds)" `Slow
            test_wheel_matches_heap_chaos;
          Alcotest.test_case "wheel ordering torture" `Quick
            test_wheel_ordering;
          Alcotest.test_case "wheel steady state allocates nothing" `Quick
            test_wheel_zero_alloc;
          Alcotest.test_case "wheel occupancy accessors" `Quick
            test_wheel_occupancy;
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
        ] );
      ( "mc-driver",
        [
          Alcotest.test_case "smoke" `Slow test_mc_driver_smoke;
          Alcotest.test_case "chaos no wedge" `Slow
            test_mc_driver_chaos_no_wedge;
          Alcotest.test_case "telemetry sums on wall-clock windows" `Slow
            test_mc_driver_telemetry;
        ] );
      ( "workload",
        [
          Alcotest.test_case "zipf" `Quick test_zipf;
          Alcotest.test_case "zipf alias = cdf oracle" `Quick
            test_zipf_alias_matches_cdf;
          Alcotest.test_case "zipf alias chi-square" `Quick
            test_zipf_alias_chi_square;
          Alcotest.test_case "arrival" `Quick test_arrival;
          Alcotest.test_case "backoff" `Quick test_backoff;
          Alcotest.test_case "registry dual" `Quick test_registry_dual;
        ] );
    ]
