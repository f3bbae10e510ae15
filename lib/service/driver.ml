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

let latency_mode cfg =
  match cfg.latency with
  | `Exact -> `Exact
  | `Hist -> `Log
  | `Auto -> if cfg.clients <= auto_exact_max then `Exact else `Log

let report cfg ~backend ~workers ~duration ~livelocked ~diagnosis total =
  let counts = Tally.counts total ~clients:cfg.clients in
  if not livelocked then
    assert (Report.balanced ~shed_terminal:(cfg.on_shed = `Drop) counts);
  let duration = Float.max 1.0 duration in
  {
    Report.backend;
    algorithm = cfg.algorithm;
    keys = cfg.keys;
    zipf_s = cfg.zipf_s;
    arrival = Arrival.describe cfg.arrival;
    backoff = Backoff.describe cfg.backoff;
    deadline = cfg.deadline;
    hold = cfg.hold;
    crash_prob = cfg.crash_prob;
    workers;
    seed = cfg.seed;
    duration;
    throughput = float_of_int counts.completed /. duration *. 1000.0;
    counts;
    latency = Tally.latency total;
    livelocked;
    diagnosis;
  }

(* A livelocked election round is cut off after this many steps; its
   unfinished contenders leave as crashed. *)
let max_round_steps = 1_000_000

module TS = Obs.Timeseries

(* {1 Event encoding}

   One event is (time, key, per-key sequence, kind, two payload ints).
   The total order is (at, key, kseq) lexicographic: keys never
   interact, so breaking time ties by key and then by per-key insertion
   order makes the order (and hence the whole simulation) independent
   of how the keyspace is partitioned across shards, while still being
   a deterministic function of the config. Both event queues store the
   wheel's packed encoding — [at], [ord = key lsl 42 lor kseq] and
   [meta = kind lsl 60 lor a lsl 30 lor b] (wheel.mli) — and pop in
   exactly this order, which is what makes [events = `Heap | `Wheel]
   reports byte-identical. *)

let k_arrive = 0
let k_retry = 1
let k_release = 2
let k_expire = 3

(* A key's kseq numbers its events in two ranges. An arrival takes its
   rank among the key's arrivals, which stays below 2^30 because
   [validate] caps clients at [Wheel.max_ab]; the key's other events
   (retries, releases, expiries) take [first_event_kseq + j] in the
   order they are scheduled. Any two events of one key compare as they
   would if every arrival had been queued first and the other events
   numbered on from the key's arrival count, so no pre-count is
   needed. *)
let first_event_kseq = Wheel.max_ab + 1

(* {2 The heap oracle}

   A binary min-heap over the packed encoding, kept as the differential
   oracle for the wheel: test_service's differential cases and the
   benchmark's "wheel = heap" check on svc-overload (rtasbench/) hold
   the two to byte-identical reports. [pop] swaps the minimum to the
   end of the live prefix and returns its index, readable until the
   next [push]. *)

module Heap = struct
  type t = {
    mutable at : float array;
    mutable ord : int array;
    mutable meta : int array;
    mutable len : int;
  }

  let create () = { at = [||]; ord = [||]; meta = [||]; len = 0 }

  let lt t i j =
    t.at.(i) < t.at.(j) || (t.at.(i) = t.at.(j) && t.ord.(i) < t.ord.(j))

  let swap t i j =
    let at = t.at.(i) and ord = t.ord.(i) and meta = t.meta.(i) in
    t.at.(i) <- t.at.(j);
    t.ord.(i) <- t.ord.(j);
    t.meta.(i) <- t.meta.(j);
    t.at.(j) <- at;
    t.ord.(j) <- ord;
    t.meta.(j) <- meta

  let push t ~at ~key ~kseq ~kind ~a ~b =
    if t.len = Array.length t.at then begin
      let cap = max 64 (2 * t.len) in
      let grow arr zero =
        let bigger = Array.make cap zero in
        Array.blit arr 0 bigger 0 t.len;
        bigger
      in
      t.at <- grow t.at 0.0;
      t.ord <- grow t.ord 0;
      t.meta <- grow t.meta 0
    end;
    let i = ref t.len in
    t.len <- t.len + 1;
    t.at.(!i) <- at;
    t.ord.(!i) <- (key lsl 42) lor kseq;
    t.meta.(!i) <- (kind lsl 60) lor (a lsl 30) lor b;
    while !i > 0 && lt t !i ((!i - 1) / 2) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop t =
    if t.len = 0 then -1
    else begin
      t.len <- t.len - 1;
      swap t 0 t.len;
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let m = if l < t.len && lt t l !i then l else !i in
        let m = if l + 1 < t.len && lt t (l + 1) m then l + 1 else m in
        if m = !i then sifting := false
        else begin
          swap t m !i;
          i := m
        end
      done;
      t.len
    end
end

(* {1 In-flight client slots}

   Per-client state exists only while a client is in flight: a slot is
   taken when the client's arrival event is handled and given back when
   the client resolves. Slots live in chunks of 1024 that are never
   copied or freed, so a worker's pool grows to the most clients it ever
   had in flight at once and is reused by its next shard. Each chunk
   keeps, per slot, four ints side by side — the client id (-1 while
   the slot is free: the live flag), election attempts, last round
   stamp, and the wait-queue link — plus the arrival time in a float
   array. [qnext] chains a key's waiting clients into an intrusive FIFO
   and, on free slots, the free list.

   The accessors are top-level functions of this module, so the
   compiler inlines them into the event loop, and they skip bounds
   checks (the flatsim and wheel convention): a slot index only ever
   comes off the free list, so its chunk exists, and its position in the
   chunk is masked. *)

let slot_bits = 10
let slot_mask = (1 lsl slot_bits) - 1

type slots = {
  mutable ints : int array array;
  mutable times : float array array;
  mutable nchunks : int;
  mutable free : int;  (* free-list head, -1 = none *)
  mutable live : int;
}

let slots_create () =
  { ints = [||]; times = [||]; nchunks = 0; free = -1; live = 0 }

let f_client = 0
let f_attempts = 1
let f_stamp = 2
let f_qnext = 3

let[@inline] get p s f =
  Array.unsafe_get
    (Array.unsafe_get p.ints (s lsr slot_bits))
    (((s land slot_mask) lsl 2) lor f)

let[@inline] set p s f v =
  Array.unsafe_set
    (Array.unsafe_get p.ints (s lsr slot_bits))
    (((s land slot_mask) lsl 2) lor f)
    v

let[@inline] client p s = get p s f_client
let[@inline] live p s = get p s f_client >= 0
let[@inline] attempts p s = get p s f_attempts
let[@inline] stamp p s = get p s f_stamp
let[@inline] qnext p s = get p s f_qnext

let[@inline] arrival p s =
  Array.unsafe_get
    (Array.unsafe_get p.times (s lsr slot_bits))
    (s land slot_mask)

let slots_grow p =
  let c = p.nchunks in
  if c = Array.length p.ints then begin
    let cap = max 8 (2 * c) in
    let ints = Array.make cap [||] and times = Array.make cap [||] in
    Array.blit p.ints 0 ints 0 c;
    Array.blit p.times 0 times 0 c;
    p.ints <- ints;
    p.times <- times
  end;
  p.ints.(c) <- Array.make (4 lsl slot_bits) (-1);
  p.times.(c) <- Array.make (1 lsl slot_bits) 0.0;
  p.nchunks <- c + 1;
  for i = slot_mask downto 0 do
    let s = (c lsl slot_bits) lor i in
    set p s f_qnext p.free;
    p.free <- s
  done

let slot_alloc p ~client ~arrival =
  if p.free < 0 then slots_grow p;
  let s = p.free in
  p.free <- qnext p s;
  set p s f_client client;
  set p s f_attempts 0;
  set p s f_stamp (-1);
  set p s f_qnext (-1);
  Array.unsafe_set
    (Array.unsafe_get p.times (s lsr slot_bits))
    (s land slot_mask) arrival;
  p.live <- p.live + 1;
  s

let slot_free p s =
  set p s f_client (-1);
  set p s f_qnext p.free;
  p.free <- s;
  p.live <- p.live - 1

(* {2 The queue the event loop runs on}

   Either engine behind one interface, so the loop is written once.
   [sample] is the engine's own telemetry, run per popped event when a
   sink is attached. A worker runs all its shards on one queue; [reset]
   readies the drained queue for the next shard. *)

type queue = {
  schedule :
    at:float -> key:int -> kseq:int -> kind:int -> a:int -> b:int -> unit;
  pop : unit -> int;  (* the earliest event's id, -1 once drained *)
  at : int -> float;
  ord : int -> int;
  meta : int -> int;
  sample : Telemetry.recorder -> float -> unit;
  reset : unit -> unit;
}

(* The wheel samples the event-loop lag (fire tick minus due tick —
   nonzero only for events scheduled at or before the wheel's clock)
   per event, and its occupancy / pool gauges, with the worker's live
   client slots, once per window crossing. *)
let wheel_queue slots =
  let w = Wheel.create () in
  let last_win = ref (-1) in
  let sample (r : Telemetry.recorder) at =
    let lag = Wheel.now_tick w - int_of_float at in
    TS.observe r.lag ~at (float_of_int (if lag > 0 then lag else 0));
    let wdx = int_of_float (at /. TS.window r.ts) in
    if wdx > !last_win then begin
      last_win := wdx;
      TS.set r.wheel_live ~at (float_of_int (Wheel.live w));
      TS.set r.client_slots ~at (float_of_int slots.live);
      TS.set r.wheel_pool_hw ~at (float_of_int (Wheel.high_water w));
      TS.set r.wheel_slots ~at (float_of_int (Wheel.slots_occupied w))
    end
  in
  {
    schedule = Wheel.schedule w;
    pop = (fun () -> Wheel.pop w);
    at = (fun id -> w.Wheel.ev_at.(id));
    ord = (fun id -> w.Wheel.ev_ord.(id));
    meta = (fun id -> w.Wheel.ev_meta.(id));
    sample;
    reset = (fun () -> Wheel.reset w; last_win := -1);
  }

let heap_queue () =
  let h = Heap.create () in
  {
    schedule = Heap.push h;
    pop = (fun () -> Heap.pop h);
    at = (fun i -> h.Heap.at.(i));
    ord = (fun i -> h.Heap.ord.(i));
    meta = (fun i -> h.Heap.meta.(i));
    sample = (fun _ _ -> ());
    reset = ignore;
  }

(* {1 Rounds}

   A shard's election arena, built once per shard from the registry
   entry and [cfg.kernel], and reused by every round of every key of
   the shard — the arena-reuse idiom of DESIGN.md §9 lifted from trial
   batches to service rounds. [elect seed nc] resets the arena, elects
   among pids [0, nc) under the round seed and returns the round's
   span; [status] then reads each pid's outcome, and [cost] records the
   round's span and its coin flips (flat machine) or RMRs (effect
   arena). Both kernels use the same derived seeds and decision
   procedures, so spans and outcomes are bit-identical between them
   (pinned by test_service's flat = effect differential). *)

type round = {
  elect : int64 -> int -> float;
  status : int -> [ `Won | `Lost | `Gone ];
  cost : Telemetry.recorder -> float -> unit;
}

let flat_round prog ~n =
  let module M = Flatsim.Machine in
  let m = M.create ~procs:n prog in
  let span () = Float.max 1.0 (float_of_int (M.time m)) in
  {
    elect =
      (fun seed nc ->
        M.reset ~seed ~procs:nc m;
        (try
           M.run_random ~max_total_steps:max_round_steps m
             ~seed:(Sim.Rng.derive seed ~stream:1)
         with Failure _ -> (* livelock cut-off *) ());
        span ());
    status =
      (fun pid ->
        if M.running m pid then `Gone
        else if m.M.results.(pid) = 1 then `Won
        else `Lost);
    cost =
      (fun r at ->
        TS.observe r.round_steps ~at (span ());
        TS.observe r.round_flips ~at (float_of_int (M.total_flips m)));
  }

let effect_round (entry : Rtas.Registry.entry) ~n ~plan =
  let mem = Sim.Memory.create () in
  let le = entry.make mem ~n in
  (* The last round's scheduler and contender count. *)
  let last = ref None in
  let span s = Float.max 1.0 (float_of_int (Sim.Sched.time s)) in
  {
    elect =
      (fun seed nc ->
        Sim.Memory.reset mem;
        let adv =
          Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)
        in
        let adv =
          match plan with
          | None -> adv
          | Some p ->
              Fault.Plan.apply ~seed:(Sim.Rng.derive seed ~stream:2) p adv
        in
        let s = Sim.Sched.create ~seed (Leaderelect.Le.programs le ~k:nc) in
        last := Some (s, nc);
        (try Sim.Sched.run ~max_total_steps:max_round_steps s adv
         with Failure _ -> (* livelock cut-off *) ());
        span s);
    status =
      (fun pid ->
        match Sim.Sched.status (fst (Option.get !last)) pid with
        | Sim.Sched.Finished 1 -> `Won
        | Sim.Sched.Finished _ -> `Lost
        | Sim.Sched.Running | Sim.Sched.Crashed -> `Gone);
    cost =
      (fun r at ->
        let s, nc = Option.get !last in
        let rmrs = ref 0 in
        for pid = 0 to nc - 1 do
          rmrs := !rmrs + Sim.Sched.rmrs s pid
        done;
        TS.observe r.round_steps ~at (span s);
        TS.observe r.round_rmrs ~at (float_of_int !rmrs));
  }

let run ?telemetry ?(domains = 1) cfg =
  validate cfg;
  if domains < 1 then invalid_arg "Driver: domains must be >= 1";
  (match telemetry with
  | Some s when s.Telemetry.trace && cfg.shards > 1 ->
      invalid_arg "Driver: telemetry trace requires shards = 1"
  | _ -> ());
  let entry = Rtas.Registry.lookup ~who:"Driver" cfg.algorithm in
  let n = cfg.contenders in
  let make_round =
    match cfg.kernel with
    | `Effect -> fun () -> effect_round entry ~n ~plan:cfg.plan
    | `Flat ->
        if cfg.plan <> None then
          invalid_arg
            "Driver: fault plans hook the effect scheduler; use kernel = \
             `Effect with plan";
        let prog =
          match entry.make_flat with
          | Some mk -> mk ~n
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Driver: algorithm %S has no flat-kernel compilation \
                    (entries with one: %s)"
                   entry.name
                   (String.concat ", " (Rtas.Registry.flat_names ())))
        in
        fun () -> flat_round prog ~n
  in
  let seed = cfg.seed in
  let lmode = latency_mode cfg in
  (* Dedicated derive streams, in the repo-wide convention: 10 arrival,
     11 key choice (both drawn by the {!Clients} stream), 12 chaos, 13
     round scheduling. Chaos and round streams are split per key and
     then per round, so a key's whole timeline is a function of (seed,
     key) alone — the property that makes the keyspace shardable
     without reordering any stream. Every shard draws the whole arrival
     stream itself and replays only the clients whose key it owns. *)
  let chaos_base = Sim.Rng.derive seed ~stream:12 in
  let round_base = Sim.Rng.derive seed ~stream:13 in
  let nshards = cfg.shards in
  (* The per-key round spans go into one Perfetto trace; with one shard
     the whole run executes in the calling domain, so the trace needs
     no cross-domain plumbing (trace + shards > 1 is rejected above). *)
  let trace =
    match telemetry with
    | Some s when s.Telemetry.trace -> Some (Obs.Chrome_trace.create ())
    | _ -> None
  in
  let run_shard (q, slots) shard =
    (* One tally per shard; without a sink its telemetry side is a
       load-and-branch per count, and the report is byte-identical
       either way (pinned by test_service's differential). *)
    let tally = Tally.create ?sink:telemetry lmode in
    (* One election arena for every key of the shard: a round runs to
       completion inside one event and [elect] resets the arena fully,
       so no state outlives a round. *)
    let arena = make_round () in
    let module R = Resettable.Make (struct
      type instance = round

      let fresh ~key:_ ~round:_ = arena
    end) in
    let res : R.t option array = Array.make cfg.keys None in
    let get_res k =
      match res.(k) with
      | Some r -> r
      | None ->
          let r = R.create ~key:k ~now:0.0 in
          res.(k) <- Some r;
          r
    in
    (* Per-key wait queues of client slots, linked through [qnext]. *)
    let qhead = Array.make cfg.keys (-1)
    and qtail = Array.make cfg.keys (-1)
    and qlen = Array.make cfg.keys 0
    and kseq = Array.make cfg.keys first_event_kseq
    and burned = Array.make cfg.keys false in
    q.reset ();
    let push ~at ~key ~kind ~a ~b =
      let s = kseq.(key) in
      kseq.(key) <- s + 1;
      q.schedule ~at ~key ~kseq:s ~kind ~a ~b
    in
    let resolve c =
      assert (live slots c);
      slot_free slots c
    in
    (* Arrivals stream in global client order: the queue holds this
       shard's next run of equal-time arrivals, and handling the run's
       last schedules the next. An arrival's kseq is its rank among its
       key's arrivals, below [first_event_kseq]; every other event of
       the key numbers on from there. *)
    let cl =
      Clients.create ~seed cfg.arrival ~keys:cfg.keys ~zipf_s:cfg.zipf_s
        cfg.clients
    in
    let arank = Array.make cfg.keys 0
    and owned = Array.init cfg.keys (fun k -> k mod nshards = shard) in
    let queued = ref 0 in
    let next_arrivals () =
      let started = ref false and first_at = ref 0.0 in
      while
        cl.Clients.index < cfg.clients
        && ((not !started) || cl.Clients.time.at = !first_at)
      do
        let k = cl.Clients.key in
        if owned.(k) then begin
          if not !started then begin
            started := true;
            first_at := cl.Clients.time.at
          end;
          q.schedule ~at:cl.Clients.time.at ~key:k ~kseq:arank.(k)
            ~kind:k_arrive ~a:cl.Clients.index ~b:0;
          arank.(k) <- arank.(k) + 1;
          incr queued
        end;
        Clients.advance cl
      done
    in
    next_arrivals ();
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
          | Resettable.Open { round; _ } ->
              if burned.(k) || qlen.(k) = 0 then ()
              else begin
                (* Pick contenders FIFO: drop expired waiters, skip
                   clients already stamped with this round, cap the
                   round size. The rest stay queued in order. *)
                let npicked = ref 0 in
                let rhead = ref (-1) and rtail = ref (-1) and rlen = ref 0 in
                let c = ref qhead.(k) in
                while !c >= 0 do
                  let nxt = qnext slots !c in
                  if now -. arrival slots !c > cfg.deadline then begin
                    resolve !c;
                    Tally.bump tally Deadline ~at:now
                  end
                  else if stamp slots !c < round && !npicked < cfg.contenders
                  then begin
                    scratch.(!npicked) <- !c;
                    incr npicked
                  end
                  else begin
                    set slots !c f_qnext (-1);
                    if !rtail < 0 then rhead := !c
                    else set slots !rtail f_qnext !c;
                    rtail := !c;
                    incr rlen
                  end;
                  c := nxt
                done;
                qhead.(k) <- !rhead;
                qtail.(k) <- !rtail;
                qlen.(k) <- !rlen;
                if !npicked > 0 then run_round k r round !npicked now
              end)
    and run_round k r round nc now =
      burned.(k) <- true;
      for pid = 0 to nc - 1 do
        let c = scratch.(pid) in
        set slots c f_stamp round;
        set slots c f_attempts (attempts slots c + 1)
      done;
      (* The round seed is a pure function of (seed, key, round): the
         per-key stream [derive round_base ~stream:k] split by the
         key's own round counter. No global round order enters, so any
         shard reproduces the key's rounds bit-identically. *)
      let sseed =
        Sim.Rng.derive (Sim.Rng.derive round_base ~stream:k) ~stream:round
      in
      let span = arena.elect sseed nc in
      Tally.bump tally Round ~at:now;
      Tally.record tally arena.cost now;
      (match trace with
      | None -> ()
      | Some tr ->
          Obs.Chrome_trace.name_thread tr ~tid:k (Printf.sprintf "key%d" k);
          Obs.Chrome_trace.complete tr ~name:"round" ~ts:(int_of_float now)
            ~dur:(int_of_float span) ~tid:k
            ~args:
              (Printf.sprintf "\"round\":%d,\"contenders\":%d,\"steps\":%d"
                 round nc (int_of_float span))
            ());
      let t_end = now +. span in
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
        match arena.status pid with
        | `Won -> winner := c
        | `Lost -> ()
        | `Gone ->
            (* Crashed mid-election by the fault plan (or cut off by a
               livelock bound): the client is gone. *)
            resolve c;
            Tally.bump tally Crashed ~at:t_end
      done;
      (if !winner >= 0 then begin
         let wc = !winner in
         let owner = client slots wc in
         let claimed = R.claim r ~round ~owner ~now:t_end in
         (* The shard is single-threaded: nothing can move the round
            between the election and the claim. *)
         assert claimed;
         (* The lease timer is always armed at claim time — recovery
            does not depend on foreseeing the holder's crash. A lease
            firing after a clean release finds the round moved on and
            is ignored. *)
         push ~at:(t_end +. cfg.deadline) ~key:k ~kind:k_expire ~a:round ~b:0;
         if u < cfg.crash_prob then
           (* The holder crashes without releasing: the key recovers
              through the round-stamp expiry path when the lease runs
              out. *)
           Tally.bump tally Holder_crashed ~at:t_end
         else begin
           Tally.complete tally ~at:t_end (t_end -. arrival slots wc);
           push ~at:(t_end +. cfg.hold) ~key:k ~kind:k_release ~a:round
             ~b:owner
         end;
         resolve wc
       end
       else
         (* Zero-winner round: every contender (or at least the
            would-be winner) crashed. The round is wedged until the
            lease runs out. *)
         push ~at:(t_end +. cfg.deadline) ~key:k ~kind:k_expire ~a:round ~b:0);
      (* Losers retry under the backoff policy; the deadline check
         happens when the retry fires. A loser is still in flight: only
         the winner and the gone resolved in this round. *)
      for pid = 0 to nc - 1 do
        let c = scratch.(pid) in
        match arena.status pid with
        | `Lost ->
            let d =
              Backoff.delay cfg.backoff ~seed ~client:(client slots c)
                ~attempt:(attempts slots c)
            in
            push ~at:(t_end +. d) ~key:k ~kind:k_retry ~a:c ~b:0
        | `Won | `Gone -> ()
      done
    in
    (* [k] is slot [c]'s key, carried by the arrival or retry event. *)
    let join c k now =
      if qlen.(k) >= cfg.max_waiters then begin
        (* Overload shed. [`Drop] rejects the client terminally;
           [`Retry] counts the rejection and sends the client back
           into backoff (the deadline check happens when the retry
           fires), so under sustained overload a client bounces off
           the full queue until it completes or its deadline runs
           out — the closed retry loop of a client-side SDK. *)
        Tally.bump tally Shed ~at:now;
        match cfg.on_shed with
        | `Drop -> resolve c
        | `Retry ->
            let att = attempts slots c + 1 in
            set slots c f_attempts att;
            let d =
              Backoff.delay cfg.backoff ~seed ~client:(client slots c)
                ~attempt:att
            in
            push ~at:(now +. d) ~key:k ~kind:k_retry ~a:c ~b:0
      end
      else begin
        ignore (get_res k : R.t);
        set slots c f_qnext (-1);
        if qtail.(k) < 0 then qhead.(k) <- c
        else set slots qtail.(k) f_qnext c;
        qtail.(k) <- c;
        qlen.(k) <- qlen.(k) + 1;
        maybe_round k now
      end
    in
    (* Arrivals, pending retries and the release or expiry that reopens
       a key count as activity for the run's duration. An arrival
       carries the client id and takes a slot; a retry carries the
       slot, which stays live while its retry is pending. *)
    let handle now k kind a b =
      if kind = k_arrive then begin
        decr queued;
        if !queued = 0 then next_arrivals ();
        Tally.touch tally now;
        Tally.bump tally Arrived ~at:now;
        join (slot_alloc slots ~client:a ~arrival:now) k now
      end
      else if kind = k_retry then begin
        assert (live slots a);
        Tally.touch tally now;
        Tally.bump tally Retried ~at:now;
        if now -. arrival slots a > cfg.deadline then begin
          resolve a;
          Tally.bump tally Deadline ~at:now
        end
        else join a k now
      end
      else begin
        (* A release by the holder, or the always-armed lease. The
           lease is stale for every round that released cleanly:
           [force_expire] refuses and the event is a no-op. *)
        let r = get_res k in
        let reopened =
          if kind = k_release then R.release r ~round:a ~owner:b ~now
          else R.force_expire r ~round:a ~now
        in
        if reopened then begin
          Tally.touch tally now;
          if kind = k_expire then Tally.bump tally Recovered ~at:now;
          burned.(k) <- false;
          maybe_round k now
        end
      end
    in
    let rec loop () =
      let id = q.pop () in
      if id >= 0 then begin
        let at = q.at id and meta = q.meta id in
        Tally.record tally q.sample at;
        handle at
          (Wheel.key_of_ord (q.ord id))
          (Wheel.kind_of_meta meta) (Wheel.a_of_meta meta)
          (Wheel.b_of_meta meta);
        loop ()
      end
    in
    loop ();
    (* Defensive drain: a waiter still queued here could only have been
       stranded by a driver bug; account it as deadline-exceeded rather
       than losing it. There is no event clock here; the client's own
       deadline instant is the honest timestamp for the miss. *)
    for k = 0 to cfg.keys - 1 do
      let c = ref qhead.(k) in
      while !c >= 0 do
        let nxt = qnext slots !c in
        Tally.bump tally Deadline ~at:(arrival slots !c +. cfg.deadline);
        resolve !c;
        c := nxt
      done
    done;
    (* Every client of the shard resolved, so its slots are all free
       for the worker's next shard. *)
    assert (slots.live = 0);
    tally
  in
  (* One queue and one slot pool per worker; both grow with what is in
     flight. *)
  let make_local () =
    let slots = slots_create () in
    match cfg.events with
    | `Wheel -> (wheel_queue slots, slots)
    | `Heap -> (heap_queue (), slots)
  in
  let tallies =
    Engine.run_local ~domains:(min domains nshards) ~trials:nshards ~seed:0L
      ~local:make_local (fun local ~trial ~seed:_ -> run_shard local trial)
  in
  (* Associative merge in shard order. *)
  let total = Tally.create lmode in
  Array.iter (Tally.merge_into ~into:total) tallies;
  Option.iter
    (fun s ->
      let merged = Tally.snapshot total in
      s.Telemetry.snapshot <- merged;
      Option.iter
        (fun tr ->
          TS.to_chrome merged tr;
          s.Telemetry.trace_json <- Some (Obs.Chrome_trace.to_string tr))
        trace)
    telemetry;
  report cfg ~backend:"sim" ~workers:1 ~duration:(Tally.last total)
    ~livelocked:false ~diagnosis:None total
