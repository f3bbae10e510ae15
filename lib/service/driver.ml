type config = {
  algorithm : string;
  clients : int;
  keys : int;
  zipf_s : float;
  arrival : Arrival.kind;
  backoff : Backoff.t;
  deadline : float;
  hold : float;
  max_waiters : int;
  on_shed : [ `Drop | `Retry ];
  contenders : int;
  crash_prob : float;
  plan : Fault.Plan.t option;
  adversary : [ `Random | `Round_robin ];
  max_round_steps : int;
  kernel : [ `Effect | `Flat ];
  events : [ `Heap | `Wheel ];
  shards : int;
  latency : [ `Auto | `Exact | `Hist ];
  seed : int64;
}

let default ~algorithm =
  {
    algorithm;
    clients = 1000;
    keys = 16;
    zipf_s = 0.9;
    arrival = Arrival.Poisson { rate = 0.02 };
    backoff = Backoff.Exp { base = 8.0; cap = 512.0 };
    deadline = 20_000.0;
    hold = 64.0;
    max_waiters = 64;
    on_shed = `Drop;
    contenders = 32;
    crash_prob = 0.0;
    plan = None;
    adversary = `Random;
    max_round_steps = 1_000_000;
    kernel = `Effect;
    events = `Wheel;
    shards = 1;
    latency = `Auto;
    seed = 1L;
  }

(* Runs with at most this many clients record exact latency samples
   under [`Auto]; larger runs switch to the bounded-memory log-bucketed
   histogram. *)
let auto_exact_max = 65_536

let validate cfg =
  if cfg.clients < 1 then invalid_arg "Driver: clients must be >= 1";
  if cfg.clients > Wheel.max_ab then
    invalid_arg "Driver: clients exceeds the event-payload range (2^30 - 1)";
  if cfg.keys < 1 then invalid_arg "Driver: keys must be >= 1";
  if cfg.keys > Wheel.max_key + 1 then
    invalid_arg "Driver: keys exceeds the event-key range (2^20)";
  (* Written as [not (finite && in range)] so NaN and infinities fail
     too: every comparison with NaN is false. *)
  if not (Float.is_finite cfg.deadline && cfg.deadline > 0.0) then
    invalid_arg "Driver: deadline must be finite and > 0";
  if not (Float.is_finite cfg.hold && cfg.hold >= 0.0) then
    invalid_arg "Driver: hold must be finite and >= 0";
  if not (Float.is_finite cfg.zipf_s && cfg.zipf_s >= 0.0) then
    invalid_arg "Driver: zipf_s must be finite and >= 0";
  if cfg.max_waiters < 1 then invalid_arg "Driver: max_waiters must be >= 1";
  if cfg.contenders < 1 then invalid_arg "Driver: contenders must be >= 1";
  if cfg.shards < 1 then invalid_arg "Driver: shards must be >= 1";
  if not (cfg.crash_prob >= 0.0 && cfg.crash_prob <= 1.0) then
    invalid_arg "Driver: crash_prob must be in [0, 1]";
  Arrival.validate cfg.arrival;
  Backoff.validate cfg.backoff

(* {1 Event encoding}

   One event is (time, key, per-key sequence, kind, two payload ints).
   The total order is (at, key, kseq) lexicographic — notably {e not}
   the PR 6 global insertion sequence: keys never interact, so breaking
   time ties by key and then by per-key insertion order makes the order
   (and hence the whole simulation) independent of how the keyspace is
   partitioned across shards, while still being a deterministic
   function of the config. Both event engines implement exactly this
   order, which is what makes `--events heap|wheel` reports
   byte-identical. *)

let k_arrive = 0
let k_retry = 1
let k_release = 2
let k_expire = 3

(* {1 The heap oracle}

   The PR 6 event engine, kept as the differential oracle for the
   wheel: a binary min-heap of boxed entries (one record + one variant
   allocation per push, O(log n) sift per operation). The wheel must
   match its reports byte-for-byte: test_service's differential cases
   and the benchmark's "wheel = heap" check on svc-overload (rtasbench/)
   hold that; its speed is the benchmark's wheel.ns_per_event metric. *)

module Heap = struct
  type hev =
    | HArrive of int
    | HRetry of int
    | HRelease of { round : int; owner : int }
    | HExpire of { round : int }

  type entry = { at : float; okey : int; kseq : int; ev : hev }

  type t = { mutable arr : entry array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let lt a b =
    a.at < b.at
    || (a.at = b.at
       && (a.okey < b.okey || (a.okey = b.okey && a.kseq < b.kseq)))

  let push t ~at ~okey ~kseq ev =
    let e = { at; okey; kseq; ev } in
    if t.len = Array.length t.arr then begin
      let cap = max 64 (2 * t.len) in
      let bigger = Array.make cap e in
      Array.blit t.arr 0 bigger 0 t.len;
      t.arr <- bigger
    end;
    t.arr.(t.len) <- e;
    t.len <- t.len + 1;
    (* sift up *)
    let i = ref (t.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt t.arr.(!i) t.arr.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = t.arr.(p) in
      t.arr.(p) <- t.arr.(!i);
      t.arr.(!i) <- tmp;
      i := p
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.arr.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.arr.(0) <- t.arr.(t.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.len && lt t.arr.(l) t.arr.(!smallest) then smallest := l;
          if r < t.len && lt t.arr.(r) t.arr.(!smallest) then smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = t.arr.(!smallest) in
            t.arr.(!smallest) <- t.arr.(!i);
            t.arr.(!i) <- tmp;
            i := !smallest
          end
        done
      end;
      Some top
    end
end

type equeue = Qheap of Heap.t | Qwheel of Wheel.t

(* {1 Per-shard partial results}

   Every field merges associatively (sums, max, Histo.merge_into), so
   folding partials in shard order yields the same report for any
   shard count. *)

type partial = {
  mutable p_completed : int;
  mutable p_deadline : int;
  mutable p_crashed : int;
  mutable p_holder_crashes : int;
  mutable p_forced : int;
  mutable p_shed : int;
  mutable p_retries : int;
  mutable p_rounds : int;
  p_hist : Histo.t;
  p_last : float array;  (* singleton: latest effective event time *)
}

(* A key's reusable election arena, one per configured kernel. Both
   carry the same algorithm; [Flat] is its registry [make_flat]
   compilation, bit-identical to [Eff] under the driver's derived seeds
   and adversaries, so the final report does not depend on the kernel. *)
type inst =
  | Eff of Leaderelect.Le.t
  | Flat of Flatsim.Machine.t

module TS = Obs.Timeseries

let run ?metrics ?telemetry ?(domains = 1) cfg =
  validate cfg;
  (match telemetry with
  | Some s when s.Telemetry.trace && cfg.shards > 1 ->
      invalid_arg "Driver: telemetry trace requires shards = 1"
  | _ -> ());
  let entry =
    match Rtas.Registry.find cfg.algorithm with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "Driver: unknown algorithm %S (expected one of: %s)"
             cfg.algorithm
             (String.concat ", " (Rtas.Registry.names ())))
  in
  let flat_prog =
    match cfg.kernel with
    | `Effect -> None
    | `Flat ->
        if cfg.plan <> None then
          invalid_arg
            "Driver: fault plans hook the effect scheduler; use kernel = \
             `Effect with plan";
        (match entry.Rtas.Registry.make_flat with
        | Some mk -> Some (mk ~n:cfg.contenders)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Driver: algorithm %S has no flat-kernel compilation \
                  (flat entries: %s)"
                 cfg.algorithm
                 (String.concat ", " (Rtas.Registry.flat_names ()))))
  in
  let seed = cfg.seed in
  let lmode =
    match cfg.latency with
    | `Exact -> `Exact
    | `Hist -> `Log
    | `Auto -> if cfg.clients <= auto_exact_max then `Exact else `Log
  in
  (* Dedicated derive streams, in the repo-wide convention: 10 arrival,
     11 key choice, 12 chaos, 13 round scheduling. Chaos and round
     streams are split per key and then per round, so a key's whole
     timeline is a function of (seed, key) alone — the property that
     makes the keyspace shardable without reordering any stream. *)
  let arrivals =
    Arrival.create cfg.arrival (Sim.Rng.create (Sim.Rng.derive seed ~stream:10))
  in
  let zipf = Zipf.create ~n:cfg.keys ~s:cfg.zipf_s in
  let zrng = Sim.Rng.create (Sim.Rng.derive seed ~stream:11) in
  let chaos_base = Sim.Rng.derive seed ~stream:12 in
  let round_base = Sim.Rng.derive seed ~stream:13 in
  (* Generate the whole open-loop arrival schedule up front (times
     strictly increasing, keys Zipfian) into the flat client arrays.
     This phase is shared by all shards; each shard replays only the
     clients whose key it owns. *)
  let cl = Clients.create cfg.clients in
  for i = 0 to cfg.clients - 1 do
    Clients.init cl i ~arrival:(Arrival.next arrivals)
      ~key:(Zipf.sample zipf zrng)
  done;
  let nshards = cfg.shards in
  (* The per-key round spans go into one Perfetto trace; with one shard
     the whole run executes in the calling domain, so the trace needs
     no cross-domain plumbing (trace + shards > 1 is rejected above). *)
  let trace =
    match telemetry with
    | Some s when s.Telemetry.trace -> Some (Obs.Chrome_trace.create ())
    | _ -> None
  in
  let run_shard shard =
    (* Telemetry recorder, one per shard: off is [None] and every
       instrumentation point below is a load-and-branch, the Probe
       no-sink discipline — the report is byte-identical either way
       (pinned by test_service's differential). *)
    let tel =
      match telemetry with
      | None -> None
      | Some s -> Some (Telemetry.recorder ~window:s.Telemetry.window ())
    in
    (* Per-key arenas, built once on first touch; every later round is
       a [Memory.reset] of the same structure — the arena-reuse idiom
       of DESIGN.md §9 lifted from trial batches to service rounds. *)
    let arenas : (int, Sim.Memory.t * Leaderelect.Le.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let flat_arenas : (int, Flatsim.Machine.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let module E = struct
      type instance = inst

      let fresh ~key ~round:_ =
        match flat_prog with
        | Some prog -> (
            (* The flat machine resets per round (it needs the round
               seed and contender count), so [fresh] only
               finds-or-builds. *)
            match Hashtbl.find_opt flat_arenas key with
            | Some m -> Flat m
            | None ->
                let m = Flatsim.Machine.create ~procs:cfg.contenders prog in
                Hashtbl.add flat_arenas key m;
                Flat m)
        | None -> (
            match Hashtbl.find_opt arenas key with
            | Some (mem, le) ->
                Sim.Memory.reset mem;
                Eff le
            | None ->
                let mem = Sim.Memory.create () in
                let le = entry.Rtas.Registry.make mem ~n:cfg.contenders in
                Hashtbl.add arenas key (mem, le);
                Eff le)
    end in
    let module R = Resettable.Make (E) in
    let res : R.t option array = Array.make cfg.keys None in
    let get_res k =
      match res.(k) with
      | Some r -> r
      | None ->
          let r = R.create ~key:k ~now:0.0 in
          res.(k) <- Some r;
          r
    in
    (* Per-key wait queues as intrusive lists through [cl.qnext]. *)
    let qhead = Array.make cfg.keys (-1)
    and qtail = Array.make cfg.keys (-1)
    and qlen = Array.make cfg.keys 0
    and kseq = Array.make cfg.keys 0
    and burned = Array.make cfg.keys false in
    let p =
      {
        p_completed = 0;
        p_deadline = 0;
        p_crashed = 0;
        p_holder_crashes = 0;
        p_forced = 0;
        p_shed = 0;
        p_retries = 0;
        p_rounds = 0;
        p_hist = Histo.create lmode;
        p_last = Array.make 1 0.0;
      }
    in
    let q =
      match cfg.events with
      | `Wheel ->
          Qwheel (Wheel.create ~capacity:((cfg.clients / nshards) + 256) ())
      | `Heap -> Qheap (Heap.create ())
    in
    (* The engine dispatch is hoisted out of the per-event path: [push]
       is bound once to the engine-specific closure, and the event loop
       below is specialised per engine (no cursor record between pop
       and dispatch). *)
    let push =
      match q with
      | Qwheel w ->
          fun ~at ~key ~kind ~a ~b ->
            let s = kseq.(key) in
            kseq.(key) <- s + 1;
            Wheel.schedule w ~at ~key ~kseq:s ~kind ~a ~b
      | Qheap h ->
          fun ~at ~key ~kind ~a ~b ->
            let s = kseq.(key) in
            kseq.(key) <- s + 1;
            let ev =
              if kind = k_arrive then Heap.HArrive a
              else if kind = k_retry then Heap.HRetry a
              else if kind = k_release then
                Heap.HRelease { round = a; owner = b }
              else Heap.HExpire { round = a }
            in
            Heap.push h ~at ~okey:key ~kseq:s ev
    in
    let bump_last now = if now > p.p_last.(0) then p.p_last.(0) <- now in
    let resolve c =
      assert (cl.Clients.state.(c) = 0);
      cl.Clients.state.(c) <- 1
    in
    let complete c ~now =
      resolve c;
      p.p_completed <- p.p_completed + 1;
      Histo.observe p.p_hist (now -. cl.Clients.arrival.(c));
      match tel with
      | None -> ()
      | Some r ->
          TS.bump r.Telemetry.completions ~at:now;
          TS.observe r.Telemetry.latency ~at:now (now -. cl.Clients.arrival.(c))
    in
    (* Replay this shard's arrivals, in global client order so per-key
       [kseq] sequences are identical for every shard count. *)
    if nshards = 1 then
      for i = 0 to cfg.clients - 1 do
        push ~at:cl.Clients.arrival.(i) ~key:cl.Clients.key.(i) ~kind:k_arrive
          ~a:i ~b:0
      done
    else
      for i = 0 to cfg.clients - 1 do
        let k = cl.Clients.key.(i) in
        if k mod nshards = shard then
          push ~at:cl.Clients.arrival.(i) ~key:k ~kind:k_arrive ~a:i ~b:0
      done;
    let base_adversary sseed =
      match cfg.adversary with
      | `Round_robin -> Sim.Adversary.round_robin ()
      | `Random ->
          Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive sseed ~stream:1)
    in
    let scratch = Array.make cfg.contenders 0 in
    (* The per-key burned flag: the current round's one-shot instance
       has hosted its election (its contender slots are consumed), so
       no second election may run on it — the key waits for the Release
       or Expire that installs the next round. *)
    let rec maybe_round k now =
      match res.(k) with
      | None -> ()
      | Some r -> (
          match R.state r with
          | Resettable.Held _ -> ()
          | Resettable.Open { round; inst; _ } ->
              if burned.(k) || qlen.(k) = 0 then ()
              else begin
                (* Pick contenders FIFO: drop expired waiters, skip
                   clients already stamped with this round, cap the
                   round size. The rest stay queued in order. *)
                let npicked = ref 0 in
                let rhead = ref (-1) and rtail = ref (-1) and rlen = ref 0 in
                let c = ref qhead.(k) in
                while !c >= 0 do
                  let nxt = cl.Clients.qnext.(!c) in
                  if now -. cl.Clients.arrival.(!c) > cfg.deadline then begin
                    resolve !c;
                    p.p_deadline <- p.p_deadline + 1;
                    match tel with
                    | None -> ()
                    | Some r -> TS.bump r.Telemetry.deadline_miss ~at:now
                  end
                  else if
                    cl.Clients.stamp.(!c) < round
                    && !npicked < cfg.contenders
                  then begin
                    scratch.(!npicked) <- !c;
                    incr npicked
                  end
                  else begin
                    cl.Clients.qnext.(!c) <- -1;
                    if !rtail < 0 then rhead := !c
                    else cl.Clients.qnext.(!rtail) <- !c;
                    rtail := !c;
                    incr rlen
                  end;
                  c := nxt
                done;
                qhead.(k) <- !rhead;
                qtail.(k) <- !rtail;
                qlen.(k) <- !rlen;
                if !npicked > 0 then run_round k r round inst !npicked now
              end)
    and run_round k r round inst nc now =
      p.p_rounds <- p.p_rounds + 1;
      (match tel with
      | None -> ()
      | Some tr -> TS.bump tr.Telemetry.rounds ~at:now);
      burned.(k) <- true;
      for pid = 0 to nc - 1 do
        let c = scratch.(pid) in
        cl.Clients.stamp.(c) <- round;
        cl.Clients.attempts.(c) <- cl.Clients.attempts.(c) + 1
      done;
      (* The round seed is a pure function of (seed, key, round): the
         per-key stream [derive round_base ~stream:k] split by the
         key's own round counter. No global round order enters, so any
         shard reproduces the key's rounds bit-identically. *)
      let sseed =
        Sim.Rng.derive (Sim.Rng.derive round_base ~stream:k) ~stream:round
      in
      (* Run the round on the configured kernel. Both paths use the
         same derived seeds and decision procedures, so [status] and
         [duration] are bit-identical between them (pinned by
         test_flatsim's driver-equality test). *)
      let duration, status =
        match inst with
        | Flat m ->
            Flatsim.Machine.reset ~seed:sseed ~procs:nc m;
            (match
               match cfg.adversary with
               | `Round_robin ->
                   Flatsim.Machine.run_rr ~max_total_steps:cfg.max_round_steps
                     m
               | `Random ->
                   Flatsim.Machine.run_random
                     ~max_total_steps:cfg.max_round_steps m
                     ~seed:(Sim.Rng.derive sseed ~stream:1)
             with
            | () -> ()
            | exception Failure _ -> (* livelock cut-off *) ());
            let duration =
              Float.max 1.0 (float_of_int (Flatsim.Machine.time m))
            in
            let status pid =
              if Flatsim.Machine.running m pid then `Gone
              else if m.Flatsim.Machine.results.(pid) = 1 then `Won
              else `Lost
            in
            (match tel with
            | None -> ()
            | Some r ->
                TS.observe r.Telemetry.round_flips ~at:now
                  (float_of_int (Flatsim.Machine.total_flips m)));
            (duration, status)
        | Eff inst ->
            let adv = base_adversary sseed in
            let adv =
              match cfg.plan with
              | None -> adv
              | Some plan ->
                  Fault.Plan.apply ~seed:(Sim.Rng.derive sseed ~stream:2) plan
                    adv
            in
            let sched =
              Sim.Sched.create ~seed:sseed (Leaderelect.Le.programs inst ~k:nc)
            in
            (match
               Sim.Sched.run ~max_total_steps:cfg.max_round_steps sched adv
             with
            | () -> ()
            | exception Failure _ -> (* livelock cut-off *) ());
            let duration =
              Float.max 1.0 (float_of_int (Sim.Sched.time sched))
            in
            let status pid =
              match Sim.Sched.status sched pid with
              | Sim.Sched.Finished 1 -> `Won
              | Sim.Sched.Finished _ -> `Lost
              | Sim.Sched.Running | Sim.Sched.Crashed -> `Gone
            in
            (match tel with
            | None -> ()
            | Some r ->
                let rmrs = ref 0 in
                for pid = 0 to nc - 1 do
                  rmrs := !rmrs + Sim.Sched.rmrs sched pid
                done;
                TS.observe r.Telemetry.round_rmrs ~at:now
                  (float_of_int !rmrs));
            (duration, status)
      in
      (match tel with
      | None -> ()
      | Some r -> TS.observe r.Telemetry.round_steps ~at:now duration);
      (match trace with
      | None -> ()
      | Some tr ->
          Obs.Chrome_trace.name_thread tr ~tid:k (Printf.sprintf "key%d" k);
          Obs.Chrome_trace.complete tr ~name:"round" ~ts:(int_of_float now)
            ~dur:(int_of_float duration) ~tid:k
            ~args:
              (Printf.sprintf "\"round\":%d,\"contenders\":%d,\"steps\":%d"
                 round nc (int_of_float duration))
            ());
      let t_end = now +. duration in
      (* One chaos draw per (key, round), from the key's own derived
         stream — alignment never depends on other keys' rounds. *)
      let u =
        if cfg.crash_prob > 0.0 then
          Sim.Rng.float
            (Sim.Rng.create
               (Sim.Rng.derive
                  (Sim.Rng.derive chaos_base ~stream:k)
                  ~stream:round))
        else 1.0
      in
      let winner = ref (-1) in
      for pid = 0 to nc - 1 do
        let c = scratch.(pid) in
        match status pid with
        | `Won -> winner := c
        | `Lost -> ()
        | `Gone ->
            (* Crashed mid-election by the fault plan (or cut off by a
               livelock bound): the client is gone. *)
            resolve c;
            p.p_crashed <- p.p_crashed + 1;
            (match tel with
            | None -> ()
            | Some r -> TS.bump r.Telemetry.crashes ~at:t_end)
      done;
      (if !winner >= 0 then begin
         let wc = !winner in
         let claimed = R.claim r ~round ~owner:wc ~now:t_end in
         (* The shard is single-threaded: nothing can move the round
            between the election and the claim. *)
         assert claimed;
         (* The lease timer is always armed at claim time — recovery
            does not depend on foreseeing the holder's crash. A lease
            firing after a clean release finds the round moved on and
            is ignored. *)
         push ~at:(t_end +. cfg.deadline) ~key:k ~kind:k_expire ~a:round ~b:0;
         if u < cfg.crash_prob then begin
           (* The holder crashes without releasing: the key recovers
              through the round-stamp expiry path when the lease runs
              out. *)
           p.p_holder_crashes <- p.p_holder_crashes + 1;
           resolve wc;
           p.p_crashed <- p.p_crashed + 1;
           match tel with
           | None -> ()
           | Some r ->
               TS.bump r.Telemetry.holder_crashes ~at:t_end;
               TS.bump r.Telemetry.crashes ~at:t_end
         end
         else begin
           complete wc ~now:t_end;
           push ~at:(t_end +. cfg.hold) ~key:k ~kind:k_release ~a:round
             ~b:wc
         end
       end
       else
         (* Zero-winner round: every contender (or at least the
            would-be winner) crashed. The round is wedged until the
            lease runs out. *)
         push ~at:(t_end +. cfg.deadline) ~key:k ~kind:k_expire ~a:round ~b:0);
      (* Losers retry under the backoff policy; the deadline check
         happens when the retry fires. *)
      for pid = 0 to nc - 1 do
        let c = scratch.(pid) in
        match status pid with
        | `Lost when cl.Clients.state.(c) = 0 ->
            let d =
              Backoff.delay cfg.backoff ~seed ~client:c
                ~attempt:cl.Clients.attempts.(c)
            in
            push ~at:(t_end +. d) ~key:k ~kind:k_retry ~a:c ~b:0
        | _ -> ()
      done
    in
    let join c now =
      let k = cl.Clients.key.(c) in
      if qlen.(k) >= cfg.max_waiters then begin
        (* Overload shed. [`Drop] rejects the client terminally;
           [`Retry] counts the rejection and sends the client back
           into backoff (the deadline check happens when the retry
           fires), so under sustained overload a client bounces off
           the full queue until it completes or its deadline runs
           out — the closed retry loop of a client-side SDK. *)
        p.p_shed <- p.p_shed + 1;
        (match tel with
        | None -> ()
        | Some r -> TS.bump r.Telemetry.sheds ~at:now);
        match cfg.on_shed with
        | `Drop -> resolve c
        | `Retry ->
            let att = cl.Clients.attempts.(c) + 1 in
            cl.Clients.attempts.(c) <- att;
            let d = Backoff.delay cfg.backoff ~seed ~client:c ~attempt:att in
            push ~at:(now +. d) ~key:k ~kind:k_retry ~a:c ~b:0
      end
      else begin
        (match res.(k) with
        | None -> ignore (get_res k : R.t)
        | Some _ -> ());
        cl.Clients.qnext.(c) <- -1;
        if qtail.(k) < 0 then qhead.(k) <- c
        else cl.Clients.qnext.(qtail.(k)) <- c;
        qtail.(k) <- c;
        qlen.(k) <- qlen.(k) + 1;
        maybe_round k now
      end
    in
    let handle now k kind a b =
      if kind = k_arrive then begin
        bump_last now;
        (match tel with
        | None -> ()
        | Some r -> TS.bump r.Telemetry.arrivals ~at:now);
        join a now
      end
      else if kind = k_retry then begin
        let c = a in
        if cl.Clients.state.(c) = 0 then begin
          bump_last now;
          p.p_retries <- p.p_retries + 1;
          (match tel with
          | None -> ()
          | Some r -> TS.bump r.Telemetry.retries ~at:now);
          if now -. cl.Clients.arrival.(c) > cfg.deadline then begin
            resolve c;
            p.p_deadline <- p.p_deadline + 1;
            match tel with
            | None -> ()
            | Some r -> TS.bump r.Telemetry.deadline_miss ~at:now
          end
          else join c now
        end
      end
      else if kind = k_release then begin
        let r = get_res k in
        if R.release r ~round:a ~owner:b ~now then begin
          bump_last now;
          burned.(k) <- false;
          maybe_round k now
        end
      end
      else begin
        (* k_expire: the always-armed lease. Stale for every round
           that released cleanly — [force_expire] refuses and the
           event is a no-op (it does not even count as activity for
           the run duration). *)
        let r = get_res k in
        if R.force_expire r ~round:a ~now then begin
          bump_last now;
          (match tel with
          | None -> ()
          | Some r -> TS.bump r.Telemetry.recoveries ~at:now);
          burned.(k) <- false;
          maybe_round k now
        end
      end
    in
    (match q with
    | Qwheel w ->
        (* Wheel-level telemetry, sampled in the pop loop: the
           event-loop lag (fire tick minus due tick — nonzero only for
           events scheduled at or before the wheel's clock) per event,
           and the occupancy / pool gauges once per window crossing. *)
        let last_win = ref (-1) in
        let twin =
          match telemetry with None -> 1.0 | Some s -> s.Telemetry.window
        in
        let sample_wheel r at =
          let wdx = int_of_float (at /. twin) in
          if wdx > !last_win then begin
            last_win := wdx;
            TS.set r.Telemetry.wheel_live ~at
              (float_of_int (Wheel.live w));
            TS.set r.Telemetry.wheel_pool_hw ~at
              (float_of_int (Wheel.high_water w));
            TS.set r.Telemetry.wheel_slots ~at
              (float_of_int (Wheel.slots_occupied w))
          end
        in
        let rec loop () =
          let id = Wheel.pop w in
          if id >= 0 then begin
            let at = w.Wheel.ev_at.(id) in
            (match tel with
            | None -> ()
            | Some r ->
                let lag = Wheel.now_tick w - int_of_float at in
                TS.observe r.Telemetry.lag ~at
                  (float_of_int (if lag > 0 then lag else 0));
                sample_wheel r at);
            let meta = w.Wheel.ev_meta.(id) in
            handle at
              (Wheel.key_of_ord w.Wheel.ev_ord.(id))
              (Wheel.kind_of_meta meta) (Wheel.a_of_meta meta)
              (Wheel.b_of_meta meta);
            loop ()
          end
        in
        loop ()
    | Qheap h ->
        let rec loop () =
          match Heap.pop h with
          | None -> ()
          | Some e ->
              (match e.Heap.ev with
              | Heap.HArrive c -> handle e.Heap.at e.Heap.okey k_arrive c 0
              | Heap.HRetry c -> handle e.Heap.at e.Heap.okey k_retry c 0
              | Heap.HRelease { round; owner } ->
                  handle e.Heap.at e.Heap.okey k_release round owner
              | Heap.HExpire { round } ->
                  handle e.Heap.at e.Heap.okey k_expire round 0);
              loop ()
        in
        loop ());
    (* Defensive drain: a waiter still queued here could only have been
       stranded by a driver bug; account it as deadline-exceeded rather
       than losing it. *)
    for k = 0 to cfg.keys - 1 do
      let c = ref qhead.(k) in
      while !c >= 0 do
        if cl.Clients.state.(!c) = 0 then begin
          resolve !c;
          p.p_deadline <- p.p_deadline + 1;
          (match tel with
          | None -> ()
          | Some r ->
              (* No event clock here; the client's own deadline instant
                 is the honest timestamp for the miss. *)
              TS.bump r.Telemetry.deadline_miss
                ~at:(cl.Clients.arrival.(!c) +. cfg.deadline))
        end;
        c := cl.Clients.qnext.(!c)
      done
    done;
    Array.iter
      (function
        | None -> ()
        | Some r -> p.p_forced <- p.p_forced + R.expiries r)
      res;
    (p, Option.map Telemetry.snapshot tel)
  in
  let partials =
    if nshards = 1 then [| run_shard 0 |]
    else begin
      let domains = max 1 (min domains nshards) in
      if domains = 1 then Array.init nshards run_shard
      else Engine.tasks ~domains ~n:nshards run_shard
    end
  in
  (* Associative merge in shard order. *)
  let hist = Histo.create lmode in
  let completed = ref 0
  and deadline_exceeded = ref 0
  and crashed_clients = ref 0
  and holder_crashes = ref 0
  and forced = ref 0
  and shed = ref 0
  and retries = ref 0
  and rounds = ref 0
  and last_time = ref 0.0 in
  Array.iter
    (fun (p, _) ->
      completed := !completed + p.p_completed;
      deadline_exceeded := !deadline_exceeded + p.p_deadline;
      crashed_clients := !crashed_clients + p.p_crashed;
      holder_crashes := !holder_crashes + p.p_holder_crashes;
      forced := !forced + p.p_forced;
      shed := !shed + p.p_shed;
      retries := !retries + p.p_retries;
      rounds := !rounds + p.p_rounds;
      if p.p_last.(0) > !last_time then last_time := p.p_last.(0);
      Histo.merge_into ~into:hist p.p_hist)
    partials;
  let counts =
    {
      Report.clients = cfg.clients;
      completed = !completed;
      deadline_exceeded = !deadline_exceeded;
      crashed_clients = !crashed_clients;
      holder_crashes = !holder_crashes;
      forced_expiries = !forced;
      shed = !shed;
      retries = !retries;
      rounds = !rounds;
      stale_wins = 0;
    }
  in
  assert (Report.balanced ~shed_terminal:(cfg.on_shed = `Drop) counts);
  let duration = Float.max 1.0 !last_time in
  let report =
    {
      Report.backend = "sim";
      algorithm = cfg.algorithm;
      keys = cfg.keys;
      zipf_s = cfg.zipf_s;
      arrival = Arrival.describe cfg.arrival;
      backoff = Backoff.describe cfg.backoff;
      deadline = cfg.deadline;
      hold = cfg.hold;
      crash_prob = cfg.crash_prob;
      workers = 1;
      seed;
      duration;
      throughput = float_of_int !completed /. duration *. 1000.0;
      counts;
      latency = Report.latency_of_histo hist;
      livelocked = false;
      diagnosis = None;
    }
  in
  Option.iter
    (fun m ->
      let h = Obs.Metrics.histogram m "service.latency_ticks" in
      Histo.iter_values
        (fun ~value ~count ->
          for _ = 1 to count do
            Obs.Metrics.observe h (int_of_float value)
          done)
        hist;
      Report.observe_metrics m report)
    metrics;
  (match telemetry with
  | None -> ()
  | Some s ->
      (* Associative merge keyed by window index, in shard order — the
         same fold shape as the partials above. *)
      let merged =
        Array.fold_left
          (fun acc (_, snap) ->
            match snap with None -> acc | Some sn -> TS.merge acc sn)
          TS.empty_snapshot partials
      in
      s.Telemetry.snapshot <- merged;
      (match trace with
      | None -> ()
      | Some tr ->
          TS.to_chrome merged tr;
          s.Telemetry.trace_json <- Some (Obs.Chrome_trace.to_string tr)));
  report
