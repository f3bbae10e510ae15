(* Tests for the Probe observability layer: the no-sink bit-identity
   guarantee, per-worker collector merging across
   domain counts, collector span accounting (incl. crashes), the
   structure of the Perfetto trace-event export, and the JSON reader and
   escaper every export shares. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Bit-identity: probing must never change the execution} *)

(* One program per participant of a registry election built in [mem]. *)
let programs name mem ~n ~k =
  let e = Option.get (Rtas.Registry.find name) in
  Leaderelect.Le.programs (e.Rtas.Registry.make mem ~n) ~k

let run_target ?probe_sink ~seed () =
  let go () =
    let mem = Sim.Memory.create () in
    let progs = programs "ratrace" mem ~n:16 ~k:8 in
    let sched = Sim.Sched.create ~record_trace:true ~seed progs in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
    ( Sim.Sched.results sched,
      Sim.Sched.time sched,
      Sim.Sched.max_rmrs sched,
      List.map Sim.Op.event_to_string (Sim.Sched.trace sched) )
  in
  match probe_sink with None -> go () | Some s -> Obs.with_sink s go

let test_probed_run_bit_identical () =
  let seed = 0xB17L in
  let r_plain, t_plain, m_plain, trace_plain = run_target ~seed () in
  let collector = Obs.Collector.create () in
  let chrome = Obs.Chrome_trace.create () in
  let r_probed, t_probed, m_probed, trace_probed =
    run_target
      ~probe_sink:
        (Obs.tee (Obs.Collector.sink collector) (Obs.Chrome_trace.sink chrome))
      ~seed ()
  in
  check
    Alcotest.(array (option int))
    "results identical" r_plain r_probed;
  checki "total steps identical" t_plain t_probed;
  checki "max rmrs identical" m_plain m_probed;
  check Alcotest.(list string) "traces identical" trace_plain trace_probed;
  (* The probed run actually observed the execution. *)
  let sn = Obs.Collector.snapshot collector in
  checki "collector saw every step" t_plain sn.Obs.Collector.sn_steps;
  checki "collector saw every finish + crash" 8
    (sn.Obs.Collector.sn_finishes + sn.Obs.Collector.sn_crashes);
  checkb "trace has events" true (Obs.Chrome_trace.n_events chrome > 0)

let test_reset_with_sink_bit_identical () =
  let seed = 0xA5EEDL in
  let r_fresh, t_fresh, m_fresh, trace_fresh = run_target ~seed () in
  let collector = Obs.Collector.create () in
  let r, t, m, trace =
    Obs.with_sink (Obs.Collector.sink collector) (fun () ->
        let mem = Sim.Memory.create () in
        let progs = programs "ratrace" mem ~n:16 ~k:8 in
        let sched = Sim.Sched.create ~record_trace:true ~seed:1L progs in
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:1L);
        (* Reuse the arena: the second (reset) run must match a fresh
           probed run bit for bit, and the trace only covers it. *)
        Sim.Memory.reset mem;
        Sim.Sched.reset ~seed sched progs;
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
        ( Sim.Sched.results sched,
          Sim.Sched.time sched,
          Sim.Sched.max_rmrs sched,
          List.map Sim.Op.event_to_string (Sim.Sched.trace sched) ))
  in
  check Alcotest.(array (option int)) "results identical" r_fresh r;
  checki "total steps identical" t_fresh t;
  checki "max rmrs identical" m_fresh m;
  check Alcotest.(list string) "post-reset trace = fresh trace" trace_fresh
    trace

(* {1 Engine.run_probed: per-worker collectors merge domain-independently} *)

(* The merged snapshot and the winners counted beside each worker's
   collector, as [rtas profile] counts them. *)
let probed_batch ~domains =
  let _stats, handles =
    Engine.run_probed ~domains ~chunk:2 ~trials:12 ~seed:0xFEEDL
      ~probe:(fun () ->
        let c = Obs.Collector.create () in
        ((c, ref 0), Obs.Collector.sink c))
      ~local:(fun (_, winners) -> winners)
      (fun winners ~trial:_ ~seed ->
        let mem = Sim.Memory.create () in
        let progs = programs "log*" mem ~n:16 ~k:6 in
        let sched = Sim.Sched.create ~seed progs in
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
        for pid = 0 to Sim.Sched.n sched - 1 do
          if Sim.Sched.result sched pid = Some 1 then incr winners
        done)
  in
  ( List.fold_left Obs.Collector.merge Obs.Collector.empty_snapshot
      (List.map (fun (c, _) -> Obs.Collector.snapshot c) handles),
    List.fold_left (fun a (_, w) -> a + !w) 0 handles )

let test_run_probed_domain_independent () =
  let sn1, w1 = probed_batch ~domains:1 in
  let sn3, w3 = probed_batch ~domains:3 in
  checkb "batch saw work" true (sn1.Obs.Collector.sn_steps > 0);
  checkb "merged snapshots equal across domain counts" true (sn1 = sn3);
  checki "one winner per trial" 12 w1;
  checki "winners equal across domain counts" w1 w3

let test_collector_merge_associative () =
  let sn, _ = probed_batch ~domains:1 in
  let e = Obs.Collector.empty_snapshot in
  checkb "empty left identity" true (Obs.Collector.merge e sn = sn);
  checkb "empty right identity" true (Obs.Collector.merge sn e = sn);
  checkb "self-merge doubles steps" true
    ((Obs.Collector.merge sn sn).Obs.Collector.sn_steps
    = 2 * sn.Obs.Collector.sn_steps)

(* {1 Collector span accounting on a handcrafted program} *)

let test_collector_attribution () =
  let collector = Obs.Collector.create () in
  Obs.with_sink (Obs.Collector.sink collector) (fun () ->
      let mem = Sim.Memory.create () in
      let r = Sim.Register.create ~name:"r" mem in
      let program ctx =
        let pid = Sim.Ctx.pid ctx in
        Obs.enter ~pid "outer";
        Sim.Ctx.write ctx r 1;
        Obs.enter ~pid "inner";
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        Obs.leave ~pid "inner";
        Sim.Ctx.write ctx r 2;
        Obs.leave ~pid "outer";
        0
      in
      let sched = Sim.Sched.create ~seed:1L [| program |] in
      Sim.Sched.run sched (Sim.Adversary.round_robin ()));
  let sn = Obs.Collector.snapshot collector in
  let phase name =
    match
      List.find_opt
        (fun p -> p.Obs.Collector.ps_phase = name)
        sn.Obs.Collector.sn_phases
    with
    | Some p -> p
    | None -> Alcotest.fail ("missing phase " ^ name)
  in
  let outer = phase "outer" and inner = phase "inner" in
  (* Leaf attribution: the two reads inside "inner" belong to it, the
     two writes outside it to "outer". *)
  checki "outer calls" 1 outer.Obs.Collector.ps_calls;
  checki "outer steps" 2 outer.Obs.Collector.ps_steps;
  checki "outer writes" 2 outer.Obs.Collector.ps_writes;
  checki "inner calls" 1 inner.Obs.Collector.ps_calls;
  checki "inner steps" 2 inner.Obs.Collector.ps_steps;
  (* First read after a write by the same pid is cached: 0 RMRs. *)
  checki "inner rmrs" 0 inner.Obs.Collector.ps_rmrs;
  checki "outer rmrs" 2 outer.Obs.Collector.ps_rmrs;
  check
    Alcotest.(array (float 1e-9))
    "inner per-span steps sample" [| 2.0 |]
    inner.Obs.Collector.ps_step_samples;
  checki "nothing unattributed" 0
    (phase "(unattributed)").Obs.Collector.ps_steps

let test_collector_unclosed_on_crash () =
  let collector = Obs.Collector.create () in
  Obs.with_sink (Obs.Collector.sink collector) (fun () ->
      let mem = Sim.Memory.create () in
      let r = Sim.Register.create ~name:"r" mem in
      let program ctx =
        Obs.enter ~pid:(Sim.Ctx.pid ctx) "doomed";
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        Obs.leave ~pid:(Sim.Ctx.pid ctx) "doomed";
        0
      in
      let sched = Sim.Sched.create ~seed:1L [| program |] in
      Sim.Sched.step sched 0;
      Sim.Sched.crash sched 0);
  let sn = Obs.Collector.snapshot collector in
  match sn.Obs.Collector.sn_phases with
  | _ ->
      let doomed =
        List.find
          (fun p -> p.Obs.Collector.ps_phase = "doomed")
          sn.Obs.Collector.sn_phases
      in
      checki "no clean calls" 0 doomed.Obs.Collector.ps_calls;
      checki "one unclosed span" 1 doomed.Obs.Collector.ps_unclosed;
      checki "steps still attributed" 1 doomed.Obs.Collector.ps_steps;
      checki "no per-span sample for crashed span" 0
        (Array.length doomed.Obs.Collector.ps_step_samples);
      checki "crash seen" 1 sn.Obs.Collector.sn_crashes

(* {1 JSON: the reader and the escaper}

   [Obs.Json.parse] checks every exported document in this file. A
   string written through [escape] must read back as itself, control
   bytes included, and what RFC 8259 does not allow must be refused. *)

module J = Obs.Json

let mem = J.member

let test_json_escape_round_trip =
  QCheck2.Test.make ~count:500 ~name:"parse (quote (escape s)) = Str s"
    ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
    (fun s -> J.parse ("\"" ^ J.escape s ^ "\"") = J.Str s)

let test_json_accepts () =
  let ok text v = checkb (Printf.sprintf "%S" text) true (J.parse text = v) in
  ok " {\"a\": [1, -0.5, 2e3, true, false, null], \"b\": {}} "
    (J.Obj
       [
         ( "a",
           J.Arr [ Num 1.0; Num (-0.5); Num 2000.0; Bool true; Bool false; Null ]
         );
         ("b", J.Obj []);
       ]);
  ok {|"a\nb\tc\u0001\/"|} (J.Str "a\nb\tc\001/");
  ok {|"\u00e9\ud83d\ude00"|} (J.Str "\xc3\xa9\xf0\x9f\x98\x80");
  ok "[]" (J.Arr [])

let test_json_rejects () =
  List.iter
    (fun (what, text) ->
      match J.parse text with
      | _ -> Alcotest.failf "%s: %S parsed" what text
      | exception J.Error _ -> ())
    [
      ("trailing comma in an array", "[1, 2,]");
      ("trailing comma in an object", {|{"a": 1,}|});
      ("unterminated string", {|{"a": "bc|});
      ("bad escape", {|"\x41"|});
      ("short \\u escape", {|"\u12"|});
      ("unpaired surrogate", {|"\ud83d"|});
      ("raw control byte in a string", "\"a\tb\"");
      ("trailing input", "{} {}");
      ("bare nan", "nan");
      ("bare inf", "[inf]");
      ("negative inf", "-inf");
      ("leading zero", "012");
      ("leading plus", "+1");
      ("bare dot", "1.");
      ("empty document", "");
      ("missing colon", {|{"a" 1}|});
    ]

(* An escaped newline in a phase name reads back as a newline, both in
   the profile JSON and in the Perfetto trace. *)
let test_json_escaped_newline_in_phase () =
  let phase = "two\nlines" in
  let chrome = Obs.Chrome_trace.create () in
  let collector = Obs.Collector.create () in
  let snapshot =
    Obs.with_sink
      (Obs.tee (Obs.Chrome_trace.sink chrome) (Obs.Collector.sink collector))
      (fun () ->
        let mem = Sim.Memory.create () in
        let r = Sim.Register.create ~name:"r" mem in
        let program ctx =
          Obs.span ~pid:(Sim.Ctx.pid ctx) phase (fun () ->
              ignore (Sim.Ctx.read ctx r));
          0
        in
        let sched = Sim.Sched.create ~seed:1L [| program |] in
        Sim.Sched.run sched (Sim.Adversary.round_robin ());
        Obs.Collector.snapshot collector)
  in
  let names doc field items =
    List.filter_map
      (fun ev ->
        match mem field ev with Some (J.Str s) -> Some s | _ -> None)
      (J.list (Option.get (mem items doc)))
  in
  let profile =
    J.parse (Rtas.Probe_report.snapshot_to_json ~winners:0 snapshot)
  in
  checkb "profile phase reads back with its newline" true
    (List.mem phase (names profile "phase" "phases"));
  let trace = J.parse (Obs.Chrome_trace.to_string chrome) in
  checkb "trace span reads back with its newline" true
    (List.mem phase (names trace "name" "traceEvents"))

(* {1 Perfetto export: JSON validity and span structure} *)

let test_chrome_trace_structure () =
  let chrome = Obs.Chrome_trace.create () in
  Obs.with_sink (Obs.Chrome_trace.sink chrome) (fun () ->
      let mem = Sim.Memory.create () in
      let progs = programs "ratrace" mem ~n:8 ~k:4 in
      let sched = Sim.Sched.create ~seed:3L progs in
      Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:3L));
  let doc =
    match J.parse (Obs.Chrome_trace.to_string chrome) with
    | doc -> doc
    | exception J.Error msg -> Alcotest.fail ("invalid JSON: " ^ msg)
  in
  let events =
    match mem "traceEvents" doc with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  checkb "has events" true (events <> []);
  (* Perfetto essentials: every event carries ph/ts/pid/tid with the
     right types, and B/E spans nest (LIFO per track). *)
  let stacks : (float, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  List.iter
    (fun ev ->
      let ph =
        match mem "ph" ev with
        | Some (J.Str p) -> p
        | _ -> Alcotest.fail "event without ph"
      in
      (match (mem "ts" ev, mem "pid" ev, mem "tid" ev) with
      | Some (J.Num _), Some (J.Num _), Some (J.Num _) -> ()
      | _ -> Alcotest.fail "event missing ts/pid/tid number");
      let name =
        match mem "name" ev with
        | Some (J.Str s) -> s
        | _ -> Alcotest.fail "event without name"
      in
      let tid = match mem "tid" ev with Some (J.Num t) -> t | _ -> 0.0 in
      match ph with
      | "B" -> stack tid := name :: !(stack tid)
      | "E" -> (
          match !(stack tid) with
          | top :: rest ->
              check Alcotest.string "spans nest (E matches its B)" top name;
              stack tid := rest
          | [] -> Alcotest.fail "E without open B")
      | "i" | "M" -> ()
      | other -> Alcotest.fail ("unexpected ph " ^ other))
    events;
  Hashtbl.iter
    (fun _ s -> checki "all spans closed" 0 (List.length !s))
    stacks;
  let phases =
    List.filter_map
      (fun ev ->
        match (mem "ph" ev, mem "name" ev) with
        | Some (J.Str "B"), Some (J.Str name) -> Some name
        | _ -> None)
      events
  in
  checkb "rr_tree span present" true (List.mem "rr_tree" phases)

(* The bytes of both exports of one probed run, pinned: the Perfetto
   trace and the profile JSON of classic RatRace at n = 8, k = 4, seed
   3. Taken before the exporters' string escapers merged into
   [Obs.Json.escape]; [rtas trace] and [rtas profile --json] pin the
   command-line bytes in test_cli. *)
let test_export_bytes_pinned () =
  let chrome = Obs.Chrome_trace.create () in
  let collector = Obs.Collector.create () in
  let winners =
    Obs.with_sink
      (Obs.tee (Obs.Chrome_trace.sink chrome) (Obs.Collector.sink collector))
      (fun () ->
        let mem = Sim.Memory.create () in
        let sched = Sim.Sched.create ~seed:3L (programs "ratrace" mem ~n:8 ~k:4) in
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:3L);
        Array.fold_left
          (fun a r -> if r = Some 1 then a + 1 else a)
          0 (Sim.Sched.results sched))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  check Alcotest.string "Perfetto trace" "54956a24667656f981030519c913cade"
    (md5 (Obs.Chrome_trace.to_string chrome));
  check Alcotest.string "profile JSON" "2b6fdfe8a0384685b4556ca3a01c4791"
    (md5
       (Rtas.Probe_report.snapshot_to_json ~winners
          (Obs.Collector.snapshot collector)))

let test_chrome_trace_crash_closes_spans () =
  let chrome = Obs.Chrome_trace.create () in
  Obs.with_sink (Obs.Chrome_trace.sink chrome) (fun () ->
      let mem = Sim.Memory.create () in
      let r = Sim.Register.create ~name:"r" mem in
      let program ctx =
        Obs.enter ~pid:(Sim.Ctx.pid ctx) "doomed";
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        0
      in
      let sched = Sim.Sched.create ~seed:1L [| program |] in
      Sim.Sched.step sched 0;
      Sim.Sched.crash sched 0);
  match J.parse (Obs.Chrome_trace.to_string chrome) with
  | exception J.Error msg -> Alcotest.fail ("invalid JSON: " ^ msg)
  | doc -> (
      match mem "traceEvents" doc with
      | Some (J.Arr evs) ->
          let count ph =
            List.length
              (List.filter (fun ev -> mem "ph" ev = Some (J.Str ph)) evs)
          in
          checki "crashed span closed by exporter" (count "B") (count "E")
      | _ -> Alcotest.fail "missing traceEvents")

let checkf = Alcotest.(check (float 1e-9))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* {1 Timeseries} *)

module TS = Obs.Timeseries
module LB = Obs.Logbucket

(* {2 The log-bucket scheme} *)

(* Values across every octave the scheme resolves, each with its
   neighbours one ulp away, plus the edges: ascending. *)
let lb_samples =
  List.concat_map
    (fun e ->
      List.concat_map
        (fun k ->
          let v = Float.ldexp (1.0 +. (float_of_int k /. 128.0)) e in
          [ Float.pred v; v; Float.succ v ])
        (List.init 128 Fun.id))
    (List.init 57 (fun e -> e - 3))
  @ [ Float.ldexp 1.0 60; max_float; infinity ]

let test_logbucket_monotone () =
  ignore
    (List.fold_left
       (fun (pv, pb) v ->
         let b = LB.of_value v in
         if b < pb then
           Alcotest.failf "of_value %h = %d < of_value %h = %d" v b pv pb;
         (v, b))
       (0.0, 0) lb_samples
      : float * int)

let test_logbucket_bounds () =
  List.iter
    (fun v ->
      let b = LB.of_value v in
      if Float.is_finite v && not (LB.lower b <= v && v < LB.upper b) then
        Alcotest.failf "%h in bucket %d = [%h, %h)" v b (LB.lower b)
          (LB.upper b))
    lb_samples;
  (* A midpoint misses any value of its bucket by at most half the
     bucket's width, which is at most 1/32 of its lower bound. *)
  for b = 1 to LB.count - 2 do
    let lo = LB.lower b and hi = LB.upper b and mid = LB.midpoint b in
    if
      not
        (lo <= mid && mid < hi
        && mid -. lo <= lo /. 64.0
        && hi -. mid <= lo /. 64.0)
    then Alcotest.failf "bucket %d: midpoint %h of [%h, %h)" b mid lo hi
  done;
  checkb "bucket 0's midpoint lies in [0, 1)" true
    (LB.lower 0 <= LB.midpoint 0 && LB.midpoint 0 < LB.upper 0);
  List.iter
    (fun v -> checki (Printf.sprintf "of_value %h" v) 0 (LB.of_value v))
    [ nan; -1.0; -0.0; neg_infinity; 0.0; 0.999 ];
  List.iter
    (fun v ->
      checki (Printf.sprintf "of_value %h" v) (LB.count - 1) (LB.of_value v))
    [ Float.ldexp 1.0 52; Float.ldexp 1.0 60; max_float; infinity ]

(* The steady state of a quantile series: once its window is touched
   and the window's counts cover the bucket, an observe is a few array
   stores, like the wheel's schedule/pop cycle. The samples are boxed
   before the count starts; boxing a float argument is the caller's
   cost. *)
let rec observe_all q = function
  | [] -> ()
  | v :: rest ->
      TS.observe q ~at:5.0 v;
      observe_all q rest

let test_quantile_observe_allocates_nothing () =
  let q = TS.quantile (TS.create ~window:10.0 ()) "lat" in
  let vs = List.init 500 (fun i -> float_of_int (i * 37 mod 5000)) in
  observe_all q vs;
  let s0 = Gc.minor_words () in
  observe_all q vs;
  let dw = Gc.minor_words () -. s0 in
  checkb (Printf.sprintf "500 observes allocated %g minor words" dw) true
    (dw = 0.0)

(* {2 The recorder} *)

let test_timeseries_windows () =
  let ts = TS.create ~window:10.0 () in
  let c = TS.counter ts "ev" in
  TS.bump c ~at:0.0;
  TS.bump c ~at:9.9;
  TS.add c ~at:25.0 3;
  let g = TS.gauge ts "depth" in
  TS.set g ~at:5.0 2.0;
  TS.set g ~at:8.0 4.0;
  TS.set g ~at:25.0 1.0;
  let q = TS.quantile ts "lat" in
  TS.observe q ~at:3.0 2.5;
  TS.observe q ~at:4.0 6.5;
  TS.observe q ~at:21.0 3.5;
  let s = TS.snapshot ts in
  checki "windows" 3 (TS.windows s);
  checkb "counter cells (nonzero windows only)" true
    (List.assoc "ev" s.TS.s_counters = [ (0, 2); (2, 3) ]);
  checki "counter_sum" 5 (TS.counter_sum s "ev");
  checki "absent counter sums to 0" 0 (TS.counter_sum s "nope");
  checkb "gauge keeps the last write per window" true
    (List.assoc "depth" s.TS.s_gauges = [ (0, 4.0); (2, 1.0) ]);
  let qs = List.assoc "lat" s.TS.s_quantiles in
  (match qs.TS.qs_windows with
  | [ w0; w2 ] ->
      checki "first quantile window" 0 w0.TS.qw_win;
      checki "its n" 2 w0.TS.qw_n;
      checkf "its exact max" 6.5 w0.TS.qw_max;
      (* 2.5 lies in [2.5, 2.5625), 6.5 in [6.5, 6.625). *)
      checkf "p50 reads the low bucket midpoint" 2.53125
        (LB.percentile w0.TS.qw_hist 0.5);
      checkf "p99 clamps the midpoint to the exact max" 6.5
        (LB.percentile w0.TS.qw_hist 0.99);
      checki "second quantile window" 2 w2.TS.qw_win
  | ws -> Alcotest.failf "expected 2 quantile windows, got %d" (List.length ws));
  Alcotest.check_raises "counter/gauge kind clash"
    (Invalid_argument "Timeseries.gauge: \"ev\" is a counter") (fun () ->
      ignore (TS.gauge ts "ev"))

(* Replay a fixed event tape into one recorder per shard (shard = event
   index mod n) and merge the per-shard snapshots: the result must not
   depend on n — the exact property the service driver leans on when it
   fans shards out over domains. Counter and quantile cells commute;
   gauge cells are last-write-wins, so the tape's gauge values are a
   function of the window alone (as the driver's per-shard wheel gauges
   are per-shard state, stripped before its cross-shard comparison). *)
let tape =
  List.init 60 (fun i ->
      (float_of_int (i * 7 mod 100), i mod 3, float_of_int (i mod 11)))

let sharded n =
  let recs = Array.init n (fun _ -> TS.create ~window:10.0 ()) in
  List.iteri
    (fun i (at, kind, v) ->
      let ts = recs.(i mod n) in
      match kind with
      | 0 -> TS.bump (TS.counter ts "ev") ~at
      | 1 -> TS.set (TS.gauge ts "depth") ~at (float_of_int (int_of_float (at /. 10.0)))
      | _ -> TS.observe (TS.quantile ts "lat") ~at v)
    tape;
  Array.fold_left
    (fun acc ts -> TS.merge acc (TS.snapshot ts))
    TS.empty_snapshot recs

let test_timeseries_merge () =
  let s1 = sharded 1 and s2 = sharded 2 and s4 = sharded 4 in
  checkb "1 vs 2 shards" true (s1 = s2);
  checkb "2 vs 4 shards" true (s2 = s4);
  checkb "empty is identity" true
    (TS.merge TS.empty_snapshot s1 = s1 && TS.merge s1 TS.empty_snapshot = s1);
  (* Counters with no overlapping gauge windows merge commutatively;
     associativity holds regardless (the shard test above exercises it
     across groupings). *)
  let other = TS.create ~window:20.0 () in
  TS.bump (TS.counter other "ev") ~at:0.0;
  Alcotest.check_raises "window width mismatch"
    (Invalid_argument "Timeseries.merge: window width mismatch") (fun () ->
      ignore (TS.merge s1 (TS.snapshot other)))

let test_timeseries_export () =
  let ts = TS.create ~window:10.0 () in
  TS.bump (TS.counter ts "svc.ev") ~at:1.0;
  TS.bump (TS.counter ts "svc.ev") ~at:15.0;
  TS.set (TS.gauge ts "svc.depth") ~at:3.0 5.0;
  TS.observe (TS.quantile ts "svc.lat") ~at:2.0 4.5;
  let s = TS.snapshot ts in
  let json = TS.to_json s in
  checkb "json carries the schema tag" true
    (contains json "\"schema\": \"rtas-timeseries/1\"");
  checkb "json counter pairs" true (contains json "[[0, 1], [1, 1]]");
  checkb "json names the bucket scheme" true
    (contains json "\"scheme\": \"logbucket32\"");
  let om = TS.to_openmetrics s in
  checkb "openmetrics sanitizes and prefixes" true
    (contains om "rtas_svc_ev_total{window=\"0\"} 1");
  checkb "openmetrics quantile summary" true
    (contains om "rtas_svc_lat{window=\"0\",quantile=\"0.5\"}");
  checkb "openmetrics ends with EOF" true (contains om "# EOF\n");
  let tr = Obs.Chrome_trace.create () in
  TS.to_chrome s tr;
  let out = Obs.Chrome_trace.to_string tr in
  match J.parse out with
  | exception J.Error msg -> Alcotest.fail ("invalid trace JSON: " ^ msg)
  | doc -> (
      match mem "traceEvents" doc with
      | Some (J.Arr evs) ->
          let counters =
            List.filter (fun ev -> mem "ph" ev = Some (J.Str "C")) evs
          in
          checkb "counter events present" true (List.length counters > 0);
          checkb "every event carries ph/ts/pid" true
            (List.for_all
               (fun ev ->
                 mem "ph" ev <> None && mem "ts" ev <> None
                 && mem "pid" ev <> None)
               evs)
      | _ -> Alcotest.fail "missing traceEvents")

let () =
  Alcotest.run "obs"
    [
      ( "logbucket",
        [
          Alcotest.test_case "of_value is monotone" `Quick
            test_logbucket_monotone;
          Alcotest.test_case "bucket bounds, midpoints and edges" `Quick
            test_logbucket_bounds;
          Alcotest.test_case "quantile observe allocates nothing" `Quick
            test_quantile_observe_allocates_nothing;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windowed counters, gauges, quantiles" `Quick
            test_timeseries_windows;
          Alcotest.test_case "shard merge is grouping-independent" `Quick
            test_timeseries_merge;
          Alcotest.test_case "JSON, OpenMetrics and Perfetto exports" `Quick
            test_timeseries_export;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "probed run = plain run" `Quick
            test_probed_run_bit_identical;
          Alcotest.test_case "probed reset run = fresh run" `Quick
            test_reset_with_sink_bit_identical;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_probed merges domain-independently" `Quick
            test_run_probed_domain_independent;
          Alcotest.test_case "collector merge algebra" `Quick
            test_collector_merge_associative;
        ] );
      ( "collector",
        [
          Alcotest.test_case "leaf attribution" `Quick
            test_collector_attribution;
          Alcotest.test_case "crash leaves unclosed span" `Quick
            test_collector_unclosed_on_crash;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "valid JSON, fields, nesting" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "crash closes open spans" `Quick
            test_chrome_trace_crash_closes_spans;
          Alcotest.test_case "export bytes pinned" `Quick
            test_export_bytes_pinned;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest test_json_escape_round_trip;
          Alcotest.test_case "accepts the grammar" `Quick test_json_accepts;
          Alcotest.test_case "rejects what RFC 8259 does not allow" `Quick
            test_json_rejects;
          Alcotest.test_case "escaped newline in a phase name" `Quick
            test_json_escaped_newline_in_phase;
        ] );
    ]
