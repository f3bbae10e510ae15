(* End-to-end gates on the [rtas] command line and the mutex example.
   Each case runs the built executable with the flags README and
   EXPERIMENTS.md document and checks named predicates on its exit
   code, its stdout and the files it writes; JSON is read with
   [Obs.Json]. Every predicate is also fed a hand-broken copy of a real
   output and must reject it, so a gate that would pass anything fails
   here. Scratch files are written next to the test executable, in the
   build tree. *)

module J = Obs.Json

let checkb = Alcotest.(check bool)

(* {1 Running a command} *)

(* Every path below is relative to the test's directory in the build
   tree, wherever the test is started from. *)
let () = Sys.chdir (Filename.dirname Sys.executable_name)

let rtas = "../bin/rtas_cli.exe"
let read_file f = In_channel.with_open_bin f In_channel.input_all

(* Runs [prog args] and returns its stdout; the case fails unless the
   exit code is [code]. A run still going after [timeout] seconds is
   killed and fails the case: a hang guard, not a speed gate. *)
let run ?(prog = rtas) ?(timeout = 120.0) ?(code = 0) args =
  let out = Filename.temp_file "rtas_cli" ".out"
  and err = Filename.temp_file "rtas_cli" ".err" in
  let fd f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let cmd = String.concat " " (prog :: args) in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "%s: still running after %g s" cmd timeout
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Alcotest.failf "%s: stopped by signal %d" cmd s
  in
  let c = wait () in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  if c <> code then
    Alcotest.failf "%s: exit %d, expected %d\n%s" cmd c code stderr;
  stdout

let json_file f = J.parse (read_file f)

(* [gate name p x] checks that [p x] holds; [refute name p x] that a
   hand-broken [x] fails it. A predicate that raises (a missing field,
   a value of the wrong type) does not hold. *)
let holds p x = try p x with J.Error _ | Not_found | Failure _ -> false
let gate name p x = checkb name true (holds p x)
let refute name p x = checkb (name ^ " rejects a broken input") false (holds p x)

(* {1 Reading outputs} *)

let field path v =
  List.fold_left
    (fun v k ->
      match J.member k v with
      | Some x -> x
      | None -> raise (J.Error ("no field " ^ k)))
    v path

let num path v = J.num (field path v)

(* The values of a series of [[window, value]] pairs; [] when the
   series is absent (it never recorded anything). *)
let series kind name v =
  match J.member name (field [ kind ] v) with
  | None -> []
  | Some pairs ->
      List.map
        (fun p -> match J.list p with [ _; x ] -> J.num x | _ -> raise Not_found)
        (J.list pairs)

let sum = List.fold_left ( +. ) 0.0
let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* Whitespace-separated cells, as awk splits a line into fields. *)
let cells l = List.filter (( <> ) "") (String.split_on_char ' ' l)

(* Replace the first [line] satisfying [p] by [f line]. *)
let edit_line p f text =
  let hit = ref false in
  String.concat "\n"
    (List.map
       (fun l ->
         if (not !hit) && p l then begin
           hit := true;
           f l
         end
         else l)
       (String.split_on_char '\n' text))

(* [set path x v] replaces the value at [path] (object keys). *)
let rec set path x v =
  match (path, v) with
  | [], _ -> x
  | k :: rest, J.Obj kvs ->
      J.Obj
        (List.map (fun (k', v') -> (k', if k' = k then set rest x v' else v')) kvs)
  | _ -> raise (J.Error "set: not an object")

let update path f v = set path (f (field path v)) v

(* Apply [f] to the [i]-th element of an array. *)
let nth_elt i f v =
  J.Arr (List.mapi (fun j x -> if j = i then f x else x) (J.list v))

(* {1 Service reports} *)

let count k r = num [ "counts"; k ] r

(* Every client ends in exactly one terminal count. *)
let partitions ~clients r =
  count "clients" r = float_of_int clients
  && count "completed" r +. count "deadline_exceeded" r
     +. count "crashed_clients" r +. count "shed" r
     = float_of_int clients

let not_livelocked r = field [ "livelocked" ] r = J.Bool false

let served ~clients r =
  partitions ~clients r && count "completed" r > 0.0 && not_livelocked r

let on_backend b r = field [ "backend" ] r = J.Str b
let latency_ordered r = num [ "latency"; "p999" ] r >= num [ "latency"; "p50" ] r

(* Under chaos every crashed holder is recovered by a forced expiry. *)
let recovers r =
  count "holder_crashes" r > 0.0
  && count "forced_expiries" r >= count "holder_crashes" r

let svc ?timeout args = run ?timeout ("service" :: args)

let sim_report =
  lazy
    (ignore
       (svc
          [ "--alg"; "log*"; "--backend"; "sim"; "--arrival"; "poisson";
            "--clients"; "500"; "--keys"; "8"; "--seed"; "11"; "-o";
            "SVC_sim.json" ]);
     json_file "SVC_sim.json")

let test_service_sim () =
  let r = Lazy.force sim_report in
  gate "sim backend" (on_backend "sim") r;
  gate "500 clients served" (served ~clients:500) r;
  gate "p999 >= p50" latency_ordered r

let test_service_atomic () =
  List.iter
    (fun (alg, out) ->
      ignore
        (svc
           [ "--alg"; alg; "--backend"; "atomic"; "--arrival"; "poisson";
             "--rate"; "0.005"; "--clients"; "150"; "--keys"; "4";
             "--domains"; "4"; "--seed"; "11"; "-o"; out ]);
      let r = json_file out in
      gate (alg ^ ": atomic backend") (on_backend "atomic") r;
      gate (alg ^ ": 150 clients served") (served ~clients:150) r)
    [ ("tournament", "SVC_atomic.json"); ("log*", "SVC_atomic_logstar.json") ]

let chaos_report =
  lazy
    (ignore
       (svc
          [ "--alg"; "log*"; "--backend"; "sim"; "--arrival"; "bursty";
            "--clients"; "500"; "--keys"; "8"; "--chaos"; "0.3"; "--seed";
            "11"; "-o"; "SVC_chaos.json" ]);
     json_file "SVC_chaos.json")

let test_service_chaos () =
  let r = Lazy.force chaos_report in
  gate "crashed holders recovered" recovers r;
  gate "500 clients partitioned" (partitions ~clients:500) r;
  gate "not livelocked" not_livelocked r

(* The same report on either kernel: poison at 500 clients, and a
   contended 512-key log* run whose rounds share one arena per shard,
   so state leaking from one key's round into the next would show. *)
let test_service_flat_equals_effect () =
  let poison kernel =
    let out = "SVC_poison_" ^ kernel ^ ".json" in
    ignore
      (svc
         [ "--alg"; "poison"; "--backend"; "sim"; "--kernel"; kernel;
           "--arrival"; "poisson"; "--clients"; "500"; "--keys"; "8";
           "--seed"; "11"; "-o"; out ]);
    read_file out
  in
  let flat = poison "flat" in
  gate "poison: 500 clients served" (served ~clients:500) (J.parse flat);
  Alcotest.(check string) "poison: effect = flat" flat (poison "effect");
  let shared kernel =
    let out = "SVC_shared_" ^ kernel ^ ".json" in
    ignore
      (svc
         [ "--alg"; "log*"; "--kernel"; kernel; "--rate"; "2"; "--clients";
           "20000"; "--keys"; "512"; "--seed"; "11"; "-o"; out ]);
    read_file out
  in
  Alcotest.(check string) "512 keys: effect = flat" (shared "flat")
    (shared "effect")

let heavy_retry r = count "retries" r > 4_000_000.0

(* Overload with retry on shed: about 200 events on each tick. *)
let test_service_dense_overload () =
  ignore
    (svc
       [ "--alg"; "tournament"; "--kernel"; "flat"; "--clients"; "60000";
         "--keys"; "64"; "--zipf"; "0"; "--rate"; "20"; "--backoff";
         "exp:8:256"; "--contenders"; "2"; "--max-waiters"; "16"; "--hold";
         "20"; "--on-shed"; "retry"; "--latency"; "hist"; "--seed"; "11";
         "-o"; "SVC_dense.json" ]);
  let r = json_file "SVC_dense.json" in
  gate "retries > 4,000,000" heavy_retry r;
  refute "retries > 4,000,000" heavy_retry
    (set [ "counts"; "retries" ] (J.Num 4_000_000.0) r)

let test_service_broken_reports () =
  let r = Lazy.force sim_report in
  let bump k d = update [ "counts"; k ] (fun x -> J.Num (J.num x +. d)) r in
  refute "partition (a completion lost)" (served ~clients:500)
    (bump "completed" (-1.0));
  refute "partition (a client counted twice)" (served ~clients:500)
    (bump "shed" 1.0);
  refute "partition (client count)" (served ~clients:500)
    (bump "clients" 1.0);
  refute "livelock" (served ~clients:500) (set [ "livelocked" ] (J.Bool true) r);
  refute "backend" (on_backend "sim") (set [ "backend" ] (J.Str "atomic") r);
  refute "p999 >= p50" latency_ordered
    (set [ "latency"; "p999" ] (J.Num (num [ "latency"; "p50" ] r -. 1.0)) r);
  let c = Lazy.force chaos_report in
  refute "crashed holders recovered" recovers
    (set [ "counts"; "forced_expiries" ]
       (J.Num (count "holder_crashes" c -. 1.0))
       c)

(* {1 The million-client run}

   One sim run at 1M clients on the timing wheel, sharded, with the
   bounded-memory latency histogram (an exact latency array at this
   scale would be the bug). Per-client state follows the clients in
   flight, so the wheel's live-event peak and the live client slots
   stay in the thousands: both gauges must stay under 20,000. *)

let gauges_bounded ts =
  List.for_all
    (fun g ->
      let vs = series "gauges" g ts in
      vs <> [] && List.for_all (fun v -> v <= 20_000.0) vs)
    [ "service.wheel_pool_hw"; "service.client_slots" ]

let on_histogram r = field [ "latency"; "mode" ] r = J.Str "hist"

let test_service_scale () =
  ignore
    (svc ~timeout:120.0
       [ "--alg"; "tournament"; "--backend"; "sim"; "--kernel"; "flat";
         "--arrival"; "poisson"; "--rate"; "20"; "--clients"; "1000000";
         "--keys"; "256"; "--zipf"; "0.5"; "--backoff"; "exp";
         "--max-waiters"; "32"; "--hold"; "50"; "--shards"; "4"; "--domains"; "2"; "--latency"; "hist"; "--seed";
         "42"; "-o"; "SVC_scale.json"; "--telemetry"; "SVC_scale_ts.json" ]);
  let r = json_file "SVC_scale.json" and ts = json_file "SVC_scale_ts.json" in
  gate "1M clients served" (served ~clients:1_000_000) r;
  gate "latency on the histogram" on_histogram r;
  gate "p999 >= p50" latency_ordered r;
  gate "both gauges <= 20,000" gauges_bounded ts;
  refute "latency on the histogram" on_histogram
    (set [ "latency"; "mode" ] (J.Str "exact") r);
  refute "both gauges <= 20,000" gauges_bounded
    (update [ "gauges"; "service.client_slots" ]
       (nth_elt 1 (fun _ -> J.Arr [ J.Num 1.0; J.Num 20_001.0 ]))
       ts)

(* {1 Telemetry}

   [rtas service] with a sink exits 1 when a windowed counter does not
   sum to its report total; on top of that the time-series must carry
   its schema tag, count every client and completion across windows,
   and read p50 <= p99 <= max in every quantile window. *)

let schema_tagged ts =
  field [ "schema" ] ts = J.Str "rtas-timeseries/1"
  && num [ "window_ticks" ] ts = 500.0
  && num [ "windows" ] ts > 0.0

let counters_sum_to_report (ts, r) =
  series "counters" "service.arrivals" ts <> []
  && List.for_all
       (fun (c, k) -> sum (series "counters" ("service." ^ c) ts) = count k r)
       [ ("arrivals", "clients"); ("completed", "completed");
         ("holder_crashes", "holder_crashes") ]

let quantile_windows name ts =
  J.list (field [ "quantiles"; name; "windows" ] ts)

let latency_windows_sum (ts, r) =
  sum (List.map (num [ "n" ]) (quantile_windows "service.latency_ticks" ts))
  = count "completed" r

let quantiles_ordered ts =
  match field [ "quantiles" ] ts with
  | J.Obj qs ->
      List.for_all
        (fun (name, _) ->
          List.for_all
            (fun w ->
              num [ "p50" ] w <= num [ "p99" ] w
              && num [ "p99" ] w <= num [ "max" ] w)
            (quantile_windows name ts))
        qs
  | _ -> false

let events tr = J.list (field [ "traceEvents" ] tr)
let is k x ev = J.member k ev = Some (J.Str x)
let count_ph ph tr = List.length (List.filter (is "ph" ph) (events tr))

let well_formed_trace tr =
  events tr <> []
  && List.for_all
       (fun ev ->
         List.for_all (fun k -> J.member k ev <> None) [ "ph"; "ts"; "pid"; "tid" ])
       (events tr)

let counter_and_round_tracks tr =
  count_ph "C" tr > 0
  && List.exists (fun ev -> is "ph" "X" ev && is "name" "round" ev) (events tr)

let openmetrics_complete om =
  List.for_all
    (fun prefix -> List.exists (String.starts_with ~prefix) (lines om))
    [ "# EOF"; "# TYPE rtas_service_arrivals counter" ]

let telemetry =
  lazy
    (ignore
       (svc
          [ "--alg"; "log*"; "--backend"; "sim"; "--arrival"; "bursty";
            "--clients"; "1000"; "--keys"; "8"; "--chaos"; "0.2"; "--seed";
            "11"; "--window"; "500"; "--telemetry"; "TEL_ts.json";
            "--openmetrics"; "TEL_ts.om"; "--trace-out"; "TEL_trace.json";
            "-o"; "TEL_report.json" ]);
     ( json_file "TEL_ts.json",
       json_file "TEL_report.json",
       json_file "TEL_trace.json",
       read_file "TEL_ts.om" ))

let test_telemetry () =
  (* A run whose windowed counters miss their totals exits 1. *)
  ignore
    (svc
       [ "--alg"; "log*"; "--arrival"; "bursty"; "--rate"; "0.05";
         "--clients"; "2000"; "--keys"; "8"; "--chaos"; "0.2"; "--window";
         "1000"; "--seed"; "11"; "--telemetry"; "TEL_table.json"; "-o";
         "TEL_table_report.json" ]);
  let ts, r, tr, om = Lazy.force telemetry in
  gate "schema tag" schema_tagged ts;
  gate "windowed counters = report totals" counters_sum_to_report (ts, r);
  gate "latency windows count every completion" latency_windows_sum (ts, r);
  gate "p50 <= p99 <= max in every window" quantiles_ordered ts;
  gate "trace events carry ph/ts/pid/tid" well_formed_trace tr;
  gate "counter tracks and round spans" counter_and_round_tracks tr;
  gate "OpenMetrics TYPE lines and EOF" openmetrics_complete om

(* Three hand-edited time-series: a latency window short of one
   completion, a window whose p50 exceeds its p99, and one whose p99
   exceeds its max; then a counter off by one, a wrong schema tag, an
   event without [tid] and an exposition without its EOF marker. *)
let test_telemetry_broken () =
  let ts, r, tr, om = Lazy.force telemetry in
  let lat = [ "quantiles"; "service.latency_ticks"; "windows" ] in
  let window f = update lat (nth_elt 0 f) ts in
  let n0 = num [ "n" ] (List.hd (J.list (field lat ts))) in
  let max0 = num [ "max" ] (List.hd (J.list (field lat ts))) in
  refute "latency windows count every completion" latency_windows_sum
    (window (set [ "n" ] (J.Num (n0 -. 1.0))), r);
  refute "p50 <= p99 <= max" quantiles_ordered
    (window (set [ "p50" ] (J.Num (max0 +. 1.0))));
  refute "p50 <= p99 <= max" quantiles_ordered
    (window (set [ "p99" ] (J.Num (max0 +. 1.0))));
  refute "windowed counters = report totals" counters_sum_to_report
    ( update [ "counters"; "service.arrivals" ]
        (nth_elt 0 (fun p ->
             match J.list p with
             | [ w; x ] -> J.Arr [ w; J.Num (J.num x +. 1.0) ]
             | _ -> p))
        ts,
      r );
  refute "schema tag" schema_tagged
    (set [ "schema" ] (J.Str "rtas-timeseries/0") ts);
  refute "trace events carry ph/ts/pid/tid" well_formed_trace
    (update [ "traceEvents" ]
       (nth_elt 3 (function
         | J.Obj kvs -> J.Obj (List.remove_assoc "tid" kvs)
         | v -> v))
       tr);
  refute "counter tracks and round spans" counter_and_round_tracks
    (update [ "traceEvents" ]
       (fun evs -> J.Arr (List.filter (fun ev -> not (is "ph" "C" ev)) (J.list evs)))
       tr);
  refute "OpenMetrics TYPE lines and EOF" openmetrics_complete
    (edit_line (String.starts_with ~prefix:"# EOF") (fun _ -> "") om)

(* {1 Trace and profile}

   The Perfetto export of one small run must balance its spans, and a
   small profile batch must name the expected phases and reproduce this
   seed's pinned RMR totals. Both files' bytes are pinned too: taken
   before the exporters' string escapers merged into
   [Obs.Json.escape]. *)

let md5 s = Digest.to_hex (Digest.string s)
let spans_balanced tr = count_ph "B" tr = count_ph "E" tr

let trace =
  lazy
    (ignore
       (run
          [ "trace"; "--algo"; "ratrace"; "-n"; "8"; "--seed"; "3"; "-o";
            "trace.json" ]);
     read_file "trace.json")

let profile =
  lazy
    (ignore
       (run
          [ "profile"; "--algos"; "ge_logstar,log*,ratrace"; "-n"; "32"; "-k";
            "8"; "--trials"; "20"; "--seed"; "3"; "--json"; "profile.json" ]);
     read_file "profile.json")

let names_the_targets p =
  match field [ "algos" ] p with
  | J.Obj kvs ->
      List.sort compare (List.map fst kvs) = [ "ge_logstar"; "log*"; "ratrace" ]
  | _ -> false

let phases algo p = J.list (field [ "algos"; algo; "phases" ] p)

let ratrace_phases p =
  List.for_all
    (fun n -> List.exists (is "phase" n) (phases "ratrace" p))
    [ "rr_tree"; "rr_ascend"; "rr_top" ]

(* A GroupElect round is attributed: some ge_round phase, and every
   one of them with calls and steps. *)
let ge_round_counted p =
  let rounds = List.filter (is "phase" "ge_round") (phases "ge_logstar" p) in
  rounds <> []
  && List.for_all
       (fun ph -> num [ "calls" ] ph > 0.0 && num [ "steps" ] ph > 0.0)
       rounds

let pinned_rmrs p =
  List.for_all
    (fun (algo, rmrs) -> num [ "algos"; algo; "totals"; "rmrs" ] p = rmrs)
    [ ("ratrace", 4265.0); ("log*", 722.0); ("ge_logstar", 340.0) ]

let test_trace () =
  let bytes = Lazy.force trace in
  let tr = J.parse bytes in
  gate "events carry ph/ts/pid/tid" well_formed_trace tr;
  gate "as many B as E events" spans_balanced tr;
  Alcotest.(check string) "trace bytes" "f083569fa8602c4cc6e461d5c16c64a6"
    (md5 bytes)

let test_profile () =
  let bytes = Lazy.force profile in
  let p = J.parse bytes in
  gate "targets named" names_the_targets p;
  gate "ratrace phases" ratrace_phases p;
  gate "ge_round calls and steps" ge_round_counted p;
  gate "pinned RMR totals" pinned_rmrs p;
  Alcotest.(check string) "profile bytes" "2d07b0a1bd1200ac70d4b039e339c094"
    (md5 bytes)

let test_trace_profile_broken () =
  let tr = J.parse (Lazy.force trace) and p = J.parse (Lazy.force profile) in
  let drop_first pred evs =
    let dropped = ref false in
    J.Arr
      (List.filter
         (fun ev ->
           if (not !dropped) && pred ev then begin
             dropped := true;
             false
           end
           else true)
         (J.list evs))
  in
  refute "as many B as E events" spans_balanced
    (update [ "traceEvents" ] (drop_first (is "ph" "E")) tr);
  refute "events carry ph/ts/pid/tid" well_formed_trace
    (set [ "traceEvents" ] (J.Arr []) tr);
  refute "targets named" names_the_targets
    (update [ "algos" ] (function J.Obj kvs -> J.Obj (List.tl kvs) | v -> v) p);
  refute "ratrace phases" ratrace_phases
    (update [ "algos"; "ratrace"; "phases" ]
       (drop_first (is "phase" "rr_top"))
       p);
  refute "ge_round calls and steps" ge_round_counted
    (update [ "algos"; "ge_logstar"; "phases" ]
       (fun phs ->
         J.Arr
           (List.map
              (fun ph ->
                if is "phase" "ge_round" ph then set [ "steps" ] (J.Num 0.0) ph
                else ph)
              (J.list phs)))
       p);
  refute "pinned RMR totals" pinned_rmrs
    (set [ "algos"; "log*"; "totals"; "rmrs" ] (J.Num 723.0) p)

(* {1 run}

   [run --trace] prints the event trace, one [[t] pN ...] line per
   event; a plain [run] prints exactly two lines, the outcome and an
   unbroken [results:] vector. *)

let event_line = Str.regexp {|\[[0-9]+\] p[0-9]+ |}
let prints_events out =
  List.exists (fun l -> Str.string_match event_line l 0) (lines out)

let two_lines out =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 out = 2

let test_run () =
  let traced =
    run [ "run"; "-a"; "tournament"; "-n"; "4"; "-k"; "2"; "--trace" ]
  in
  gate "run --trace prints events" prints_events traced;
  let plain = run [ "run"; "-a"; "tournament"; "-n"; "8"; "-k"; "4" ] in
  gate "run prints two lines" two_lines plain;
  refute "run --trace prints events" prints_events plain;
  refute "run prints two lines" two_lines
    (edit_line (String.starts_with ~prefix:"results:") (fun l -> l ^ "\n0") plain)

(* {1 Tables: chaos and registry}

   Each column is sized by its widest cell, so every row's cell starts
   at its header's offset. *)

(* Under [header], every row but the [skip]ped ones has [gutter]
   spaces and then a cell matching [cell]. *)
let aligned ~header ~gutter ~cell ~skip out =
  match lines out with
  | [] -> false
  | h :: rows ->
      let at = Str.search_forward (Str.regexp_string header) h 0 in
      let re = Str.regexp cell in
      at >= gutter
      && List.for_all
           (fun l ->
             skip l
             || String.length l > at
                && String.sub l (at - gutter) gutter = String.make gutter ' '
                && Str.string_match re l at)
           rows

let mode_aligned =
  aligned ~header:"mode" ~gutter:1 ~cell:"\\(le\\|tas\\|mc\\) "
    ~skip:(fun l ->
      String.starts_with ~prefix:"chaos." l
      || String.starts_with ~prefix:"chaos:" l)

let adversary_aligned =
  aligned ~header:"adversary" ~gutter:2
    ~cell:"\\(adaptive\\|location-oblivious\\|rw-oblivious\\|oblivious\\) "
    ~skip:(fun _ -> false)

(* Insert a space after the row's first cell: every later cell moves
   one place right. *)
let shift_row name =
  edit_line
    (String.starts_with ~prefix:(name ^ " "))
    (fun l ->
      let n = String.length name in
      String.sub l 0 n ^ " " ^ String.sub l n (String.length l - n))

let chaos_table =
  lazy
    (run
       [ "chaos"; "-n"; "16"; "-k"; "6"; "--trials"; "5"; "--probs";
         "0,0.05,0.2"; "--seed"; "42"; "--mc" ])

let test_chaos () =
  gate "mode cells aligned" mode_aligned (Lazy.force chaos_table)

(* The misaligned row a 15-character impl name once made: every cell
   after the name one place right. *)
let test_chaos_broken () =
  refute "mode cells aligned" mode_aligned
    (shift_row "loglog" (Lazy.force chaos_table))

(* The registry's rows as cells: name, regs, mc, flat, ... *)
let rows out = List.map cells (List.tl (lines out))
let row name out = List.find (fun r -> List.hd r = name) (rows out)

(* Every election carries an Atomic.t instance of the simulator's size. *)
let mc_equals_regs out =
  List.length (rows out) >= 12
  && List.for_all
       (function _ :: regs :: mc :: _ -> regs = mc | _ -> false)
       (rows out)

let poison_flat out =
  match row "poison" out with
  | _ :: r :: m :: f :: _ -> r = m && m = f
  | _ -> false

let opt_space_not_flat out =
  match row "opt-space" out with
  | _ :: r :: m :: f :: _ -> r = m && f = "-"
  | _ -> false

let classic_ratrace_size out =
  match row "ratrace" out with _ :: _ :: m :: _ -> m = "3170306" | _ -> false

let registry = lazy (run [ "registry"; "-n"; "64" ])

let registry_gates =
  [
    ("mc = regs on every row", mc_equals_regs);
    ("poison flat, three backends agree", poison_flat);
    ("opt-space has no flat kernel", opt_space_not_flat);
    ("classic RatRace: 3,170,306 registers", classic_ratrace_size);
    ("adversary cells aligned", adversary_aligned);
  ]

let test_registry () =
  List.iter (fun (name, p) -> gate name p (Lazy.force registry)) registry_gates

let test_registry_broken () =
  let t = Lazy.force registry in
  (* The row of [name] with its [i]-th cell replaced by [x]. *)
  let replace_cell name i x =
    edit_line
      (fun l -> match cells l with n :: _ -> n = name | [] -> false)
      (fun l ->
        String.concat " " (List.mapi (fun j c -> if j = i then x else c) (cells l)))
      t
  in
  List.iter2
    (fun (name, p) broken -> refute name p broken)
    registry_gates
    [
      replace_cell "log*" 2 "401";
      replace_cell "poison" 3 "272";
      replace_cell "opt-space" 3 "75";
      replace_cell "ratrace" 2 "3170305";
      shift_row "sift" t;
    ]

(* {1 claims} *)

let all_checks_pass out =
  List.exists (String.starts_with ~prefix:"PASS") (lines out)
  && not (List.exists (String.starts_with ~prefix:"FAIL") (lines out))

let test_claims () =
  let out = run [ "claims"; "e5"; "e7"; "e13" ] in
  gate "e5 e7 e13 pass" all_checks_pass out;
  refute "e5 e7 e13 pass" all_checks_pass
    (edit_line (String.starts_with ~prefix:"PASS")
       (fun l -> "FAIL" ^ String.sub l 4 (String.length l - 4))
       out)

(* {1 Real domains}

   Every registry election races real domains 2- and 4-way and must
   elect a unique winner in every trial; the mutex example asserts
   exactly-once initialisation through every registry election's TAS
   and the native one. Both exit non-zero otherwise. *)

let test_multicore () =
  List.iter
    (fun d ->
      ignore (run [ "mc"; "--domains"; d; "--trials"; "10"; "--seed"; "7" ]))
    [ "2"; "4" ];
  ignore (run ~prog:"../examples/mutex.exe" [])

(* {1 Usage errors exit 2} *)

let test_usage_errors () =
  List.iter
    (fun args -> ignore (run ~code:2 args))
    [
      [ "claims"; "e99" ];
      [ "chaos"; "--algorithms"; "nope" ];
      [ "chaos"; "--probs"; "1.5" ];
      [ "chaos"; "--probs"; "nan" ];
      [ "chaos"; "--plan"; "crash:-1@3" ];
      [ "chaos"; "--trials"; "0" ];
      [ "run"; "-a"; "tournament"; "-n"; "2"; "-k"; "40" ];
      [ "run"; "--alg"; "nope" ];
      [ "run"; "--adversary"; "nope" ];
      [ "trace"; "-k"; "0"; "-o"; "trace_k0.json" ];
      [ "trace"; "--adversary"; "nope"; "-o"; "trace_adv.json" ];
      [ "profile"; "--adversary"; "nope" ];
      [ "profile"; "--trials"; "0" ];
      [ "mc"; "--trials"; "0" ];
      [ "mc"; "--timeout"; "nan" ];
      [ "service"; "--backoff"; "exp:x:1" ];
      [ "service"; "--backoff"; "rand:abc" ];
      [ "service"; "--window"; "0"; "--telemetry"; "SVC_bad_window.json" ];
      [ "service"; "--domains"; "0" ];
      [ "service"; "--plan"; "storm:nan" ];
      [ "service"; "--backend"; "atomic"; "--plan"; "storm:0.1" ];
      [ "service"; "--backend"; "atomic"; "--kernel"; "flat" ];
      [ "service"; "--backend"; "atomic"; "--trace-out"; "SVC_atomic_trace.json" ];
    ];
  (* A bad name fails before the table header is printed. *)
  Alcotest.(check string) "sweep --adversary nope prints nothing" ""
    (run ~code:2 [ "sweep"; "--adversary"; "nope" ])

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cli"
    [
      ( "service",
        [
          case "sim report" test_service_sim;
          case "atomic reports, tournament and log*" test_service_atomic;
          case "chaos recovers every holder" test_service_chaos;
          case "flat = effect" test_service_flat_equals_effect;
          case "dense overload retries" test_service_dense_overload;
          case "broken reports rejected" test_service_broken_reports;
          case "1M clients, bounded gauges" test_service_scale;
        ] );
      ( "telemetry",
        [
          case "time-series, OpenMetrics, Perfetto" test_telemetry;
          case "broken exports rejected" test_telemetry_broken;
        ] );
      ( "probe",
        [
          case "trace" test_trace;
          case "profile" test_profile;
          case "broken trace and profile rejected" test_trace_profile_broken;
        ] );
      ( "tables",
        [
          case "chaos sweep aligned" test_chaos;
          case "misaligned chaos row rejected" test_chaos_broken;
          case "registry" test_registry;
          case "broken registry rows rejected" test_registry_broken;
        ] );
      ( "commands",
        [
          case "run" test_run;
          case "claims e5 e7 e13" test_claims;
          case "mc and the mutex example" test_multicore;
          case "usage errors exit 2" test_usage_errors;
        ] );
    ]
