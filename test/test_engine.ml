(* Tests for the parallel trial engine: the determinism contract
   (bit-identical results for every domain count), seed derivation, the
   mergeable reducer, parallel exploration, and the simulator hot-path
   rewrites the engine leans on (bitset RMR caches, array statistics). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Rng.derive} *)

let test_derive_deterministic () =
  for stream = 0 to 50 do
    Alcotest.check Alcotest.int64 "same inputs, same seed"
      (Sim.Rng.derive 42L ~stream)
      (Sim.Rng.derive 42L ~stream)
  done

let test_derive_streams_distinct () =
  (* Distinct streams from one seed must give distinct sub-seeds (the
     mix is injective in the stream for a fixed seed). *)
  let tbl = Hashtbl.create 1024 in
  for stream = 0 to 999 do
    Hashtbl.replace tbl (Sim.Rng.derive 0xFEEDL ~stream) ()
  done;
  checki "1000 streams, 1000 sub-seeds" 1000 (Hashtbl.length tbl)

let test_derive_differs_from_seed () =
  checkb "stream 0 is not the identity" true
    (Sim.Rng.derive 7L ~stream:0 <> 7L)

(* {1 Engine.run: bit-identical across domain counts} *)

(* A trial that actually exercises the simulator: one log* election,
   returning exact integers so equality is bit-level. *)
let election_trial ~trial:_ ~seed =
  let o =
    Rtas.Election.run ~seed:(Sim.Rng.derive seed ~stream:0)
      ~adversary:
        (Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1))
      ~algorithm:"log*" ~n:32 ~k:8 ()
  in
  (o.Rtas.Election.max_steps, o.Rtas.Election.max_rmrs)

let test_run_domain_independent () =
  let r1 = Engine.run ~domains:1 ~trials:24 ~seed:3L election_trial in
  let r4 = Engine.run ~domains:4 ~trials:24 ~seed:3L election_trial in
  checkb "domains:1 = domains:4" true (r1 = r4)

let test_run_chunk_independent () =
  let a = Engine.run ~domains:4 ~chunk:1 ~trials:17 ~seed:9L election_trial in
  let b = Engine.run ~domains:2 ~chunk:5 ~trials:17 ~seed:9L election_trial in
  checkb "chunking does not leak into results" true (a = b)

let test_run_trial_indices () =
  let r =
    Engine.run ~domains:3 ~trials:10 ~seed:0L (fun ~trial ~seed:_ -> trial)
  in
  Alcotest.(check (array int)) "slot t holds trial t"
    (Array.init 10 (fun i -> i))
    r

let test_run_seeds_are_derived () =
  let r =
    Engine.run ~domains:2 ~trials:8 ~seed:5L (fun ~trial:_ ~seed -> seed)
  in
  Array.iteri
    (fun t s ->
      Alcotest.check Alcotest.int64 "seed of trial t" (Sim.Rng.derive 5L ~stream:t) s)
    r

let test_run_exception_propagates () =
  checkb "trial exception re-raised after join" true
    (try
       ignore
         (Engine.run ~domains:2 ~trials:8 ~seed:0L (fun ~trial ~seed:_ ->
              if trial = 5 then failwith "boom" else trial));
       false
     with Failure m -> m = "boom")

let test_reduce_matches_fold () =
  let reducer =
    { Engine.empty = (fun () -> []); add = (fun acc x -> x :: acc);
      merge = (fun a b -> b @ a) }
  in
  (* The reducer builds the reversed trial list; merged in chunk order
     it must equal the sequential fold for any domains/chunk split. *)
  let expect =
    Engine.fold ~domains:1 ~trials:30 ~seed:2L ~init:[]
      ~add:(fun acc x -> x :: acc)
      election_trial
  in
  List.iter
    (fun (domains, chunk) ->
      let got =
        Engine.reduce ~domains ?chunk ~trials:30 ~seed:2L ~reducer
          election_trial
      in
      checkb "reduce = sequential fold" true (got = expect))
    [ (1, None); (4, None); (3, Some 1); (2, Some 7) ]

let test_reduce_noncommutative () =
  (* String concatenation: associative, identity "", emphatically not
     commutative. Any reordering of trials or chunk merges shows up as a
     scrambled word. *)
  let reducer =
    {
      Engine.empty = (fun () -> "");
      add = (fun acc x -> acc ^ x);
      merge = ( ^ );
    }
  in
  let letter ~trial ~seed:_ =
    String.make 1 (Char.chr (Char.code 'a' + (trial mod 26)))
  in
  let expect = String.init 60 (fun t -> Char.chr (Char.code 'a' + (t mod 26))) in
  List.iter
    (fun (domains, chunk) ->
      Alcotest.(check string)
        (Printf.sprintf "order preserved at domains=%d" domains)
        expect
        (Engine.reduce ~domains ?chunk ~trials:60 ~seed:6L ~reducer letter))
    [ (1, None); (4, None); (3, Some 1); (2, Some 7); (5, Some 13) ]

let test_mean_domain_independent () =
  let f ~trial:_ ~seed = Int64.to_float (Int64.rem seed 1000L) in
  let m1 = Engine.mean ~domains:1 ~trials:50 ~seed:4L f in
  let m4 = Engine.mean ~domains:4 ~trials:50 ~seed:4L f in
  checkb "identical float mean" true (m1 = m4)

(* {1 Unboxed sinks and the arena-reuse hot path} *)

let test_run_float_matches_run () =
  let f ~trial ~seed =
    Int64.to_float (Int64.rem seed 1000L) +. (float_of_int trial /. 7.0)
  in
  let boxed = Engine.run ~domains:1 ~trials:40 ~seed:8L f in
  List.iter
    (fun domains ->
      let fa = Engine.run_float ~domains ~trials:40 ~seed:8L
          ~local:(fun () -> ()) (fun () -> f)
      in
      checki "length" 40 (Float.Array.length fa);
      for t = 0 to 39 do
        checkb "slot t bit-identical to boxed run" true
          (Float.Array.get fa t = boxed.(t))
      done)
    [ 1; 4 ]

let test_run_into_writer () =
  let sink = Array.make 30 (-1) in
  let stats =
    Engine.run_into ~domains:3 ~chunk:4 ~trials:30 ~seed:10L
      ~local:(fun () -> ())
      (fun () ~trial ~seed:_ -> sink.(trial) <- trial * trial)
  in
  Alcotest.(check (array int)) "writer fills caller's sink"
    (Array.init 30 (fun t -> t * t))
    sink;
  let total =
    Array.fold_left (fun a (w : Engine.worker_stats) -> a + w.Engine.w_trials)
      0 stats
  in
  checki "worker trial counts sum to the batch" 30 total;
  let chunks =
    Array.fold_left (fun a (w : Engine.worker_stats) -> a + w.Engine.w_chunks)
      0 stats
  in
  checki "chunk counts cover the batch" ((30 + 3) / 4) chunks

let test_run_local_arena_per_worker () =
  (* Each worker gets exactly one arena: with domains:1 every trial sees
     the same one, and mutating it between trials is visible (that is
     the whole point — reuse instead of rebuild). *)
  let built = Atomic.make 0 in
  let r =
    Engine.run_local ~domains:1 ~trials:12 ~seed:11L
      ~local:(fun () ->
        Atomic.incr built;
        ref 0)
      (fun cell ~trial:_ ~seed:_ ->
        incr cell;
        !cell)
  in
  checki "one arena for the single worker" 1 (Atomic.get built);
  Alcotest.(check (array int)) "arena state carries across trials"
    (Array.init 12 (fun i -> i + 1))
    r

(* {1 Aggregated tables: chaos reports across domain counts} *)

let test_chaos_report_domain_independent () =
  let point ~domains =
    Fault.Chaos.run_point ~timeout:10.0 ~retries:1 ~domains ~mode:Fault.Chaos.Tas
      ~algorithm:"tournament" ~n:16 ~k:8 ~crash_prob:0.1 ~trials:12 ~seed:21L
      ()
  in
  let a = point ~domains:1 and b = point ~domains:4 in
  (* [max_elapsed] is wall-clock, hence not deterministic; every
     model-level field must match exactly. *)
  checki "crashes" a.Fault.Chaos.crashes b.Fault.Chaos.crashes;
  checki "violations" a.Fault.Chaos.violations b.Fault.Chaos.violations;
  checki "timeouts" a.Fault.Chaos.timeouts b.Fault.Chaos.timeouts;
  checkb "failure seeds" true
    (a.Fault.Chaos.failure_seeds = b.Fault.Chaos.failure_seeds);
  checkb "mean steps" true (a.Fault.Chaos.mean_steps = b.Fault.Chaos.mean_steps)

(* {1 Engine.explore vs sequential exploration} *)

let duel_programs () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  Array.init 2 (fun _ ctx ->
      if Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx) then 1 else 0)

let test_explore_matches_sequential () =
  let winners = Atomic.make 0 and paths = Atomic.make 0 in
  let check sched =
    Atomic.incr paths;
    let w =
      Array.fold_left
        (fun acc r -> if r = Some 1 then acc + 1 else acc)
        0
        (Sim.Sched.results sched)
    in
    if w <> 1 then Alcotest.failf "expected a unique winner, got %d" w;
    ignore (Atomic.fetch_and_add winners w)
  in
  let sequential =
    Sim.Explore.explore ~depth:6 ~programs:duel_programs ~check ()
  in
  let seen_seq = Atomic.get paths in
  Atomic.set paths 0;
  Atomic.set winners 0;
  let parallel =
    Engine.explore ~domains:4 ~depth:6 ~programs:duel_programs ~check ()
  in
  checki "same number of executions" sequential parallel.Engine.executions;
  checkb "exhaustive search is not truncated" false parallel.Engine.truncated;
  checki "check ran once per execution" seen_seq (Atomic.get paths);
  checki "one winner per execution" seen_seq (Atomic.get winners)

let test_explore_crash_subtrees () =
  let count = Atomic.make 0 in
  let check _ = Atomic.incr count in
  let sequential =
    Sim.Explore.explore ~max_crashes:1 ~depth:4 ~programs:duel_programs ~check
      ()
  in
  Atomic.set count 0;
  let parallel =
    Engine.explore ~domains:3 ~max_crashes:1 ~depth:4 ~programs:duel_programs
      ~check ()
  in
  checki "crash-aware counts agree" sequential parallel.Engine.executions;
  checkb "exhaustive search is not truncated" false parallel.Engine.truncated;
  checki "checked every execution" parallel.Engine.executions (Atomic.get count)

let test_explore_truncation_reported () =
  (* A budget far below the tree size must be reported, never silently
     swallowed (the duel tree at depth 6 has hundreds of executions). *)
  List.iter
    (fun domains ->
      let r =
        Engine.explore ~domains ~max_paths:5 ~depth:6 ~programs:duel_programs
          ~check:(fun _ -> ())
          ()
      in
      checkb
        (Printf.sprintf "domains=%d: truncation is flagged" domains)
        true r.Engine.truncated;
      checkb "budget respected" true (r.Engine.executions <= 5))
    [ 1; 4 ]

(* {1 RMR accounting: bitset caches vs a Hashtbl reference}

   The scheduler now tracks CC-model cache validity in per-register
   bitsets. Recompute the per-process RMR counts from a recorded trace
   with the original lazily-grown Hashtbl structure and demand they
   agree. *)

let rmrs_reference events n =
  let caches : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let rmrs = Array.make n 0 in
  let cache reg =
    match Hashtbl.find_opt caches reg with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.add caches reg t;
        t
  in
  List.iter
    (function
      | Sim.Op.Step { pid; reg; kind = Sim.Op.Read; _ } ->
          let t = cache reg in
          if not (Hashtbl.mem t pid) then begin
            rmrs.(pid) <- rmrs.(pid) + 1;
            Hashtbl.replace t pid ()
          end
      | Sim.Op.Step { pid; reg; kind = Sim.Op.Write _; _ } ->
          let t = cache reg in
          Hashtbl.reset t;
          Hashtbl.replace t pid ();
          rmrs.(pid) <- rmrs.(pid) + 1
      | _ -> ())
    events;
  rmrs

let test_rmr_bitset_matches_hashtbl () =
  List.iter
    (fun (algorithm, n, k, seed) ->
      let adversary =
        Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)
      in
      let entry = Option.get (Rtas.Registry.find algorithm) in
      let mem = Sim.Memory.create () in
      let le = entry.Rtas.Registry.make mem ~n in
      let sched =
        Sim.Sched.create ~seed ~record_trace:true
          (Leaderelect.Le.programs le ~k)
      in
      Sim.Sched.run sched adversary;
      let expect = rmrs_reference (Sim.Sched.trace sched) k in
      for pid = 0 to k - 1 do
        checki
          (Printf.sprintf "%s: rmrs of p%d" algorithm pid)
          expect.(pid)
          (Sim.Sched.rmrs sched pid)
      done)
    [
      ("log*", 64, 16, 13L);
      ("tournament", 32, 32, 14L);
      ("ratrace-lean", 64, 24, 15L);
      ("loglog", 64, 16, 16L);
    ]

(* {1 Stats: array implementations vs naive references} *)

let naive_percentile p l =
  let sorted = List.sort compare l in
  let n = List.length sorted in
  let rank =
    max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  List.nth sorted rank

let test_stats_percentile_matches_naive () =
  let rng = Sim.Rng.create 77L in
  for _ = 1 to 20 do
    let l =
      List.init (1 + Sim.Rng.int rng 40) (fun _ ->
          float_of_int (Sim.Rng.int rng 1000))
    in
    List.iter
      (fun p ->
        Alcotest.(check (float 0.0))
          "percentile" (naive_percentile p l)
          (Sim.Stats.percentile l p))
      [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]
  done

let test_stats_summary_matches_naive () =
  let l = List.init 101 (fun i -> float_of_int ((i * 37) mod 101)) in
  let s = Sim.Stats.summarize l in
  let n = float_of_int (List.length l) in
  let mean = List.fold_left ( +. ) 0.0 l /. n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 l /. (n -. 1.0)
  in
  Alcotest.(check (float 1e-9)) "mean" mean s.Sim.Stats.mean;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt var) s.Sim.Stats.stddev;
  Alcotest.(check (float 0.0)) "min" 0.0 s.Sim.Stats.min;
  Alcotest.(check (float 0.0)) "max" 100.0 s.Sim.Stats.max;
  Alcotest.(check (float 0.0))
    "median" (naive_percentile 0.5 l) s.Sim.Stats.median;
  Alcotest.(check (float 0.0)) "p95" (naive_percentile 0.95 l) s.Sim.Stats.p95

let test_stats_array_agrees_with_list () =
  let l = List.init 57 (fun i -> float_of_int ((i * 13) mod 57)) in
  let a = Array.of_list l in
  let sa = Sim.Stats.summarize_array a in
  let sl = Sim.Stats.summarize l in
  checkb "array and list summaries agree" true (sa = sl);
  Alcotest.(check (float 0.0))
    "mean_array" (Sim.Stats.mean l) (Sim.Stats.mean_array a)

let test_stats_p999_matches_naive () =
  let rng = Sim.Rng.create 177L in
  List.iter
    (fun n ->
      let l = List.init n (fun _ -> float_of_int (Sim.Rng.int rng 100_000)) in
      let s = Sim.Stats.summarize l in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p999 at n=%d" n)
        (naive_percentile 0.999 l) s.Sim.Stats.p999;
      (* Below 1000 samples the 99.9th nearest-rank percentile is the
         maximum — pin that reading down explicitly. *)
      if n < 1000 then
        Alcotest.(check (float 0.0)) "p999 = max below 1000 samples"
          s.Sim.Stats.max s.Sim.Stats.p999)
    [ 1; 7; 999; 1000; 1001; 5000 ]

let test_stats_percentile_edge_cases () =
  Alcotest.check_raises "empty sample raises"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Sim.Stats.percentile_sorted [||] 0.5));
  Alcotest.check_raises "p out of range raises"
    (Invalid_argument "Stats.percentile: p must be in [0, 1]") (fun () ->
      ignore (Sim.Stats.percentile_sorted [| 1.0 |] 1.5));
  (* A single element is every percentile. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        "singleton" 42.0
        (Sim.Stats.percentile_sorted [| 42.0 |] p))
    [ 0.0; 0.5; 0.999; 1.0 ];
  Alcotest.(check (option (float 0.0)))
    "opt empty" None
    (Sim.Stats.percentile_sorted_opt [||] 0.5);
  Alcotest.(check (option (float 0.0)))
    "opt singleton" (Some 3.0)
    (Sim.Stats.percentile_sorted_opt [| 3.0 |] 0.999)

let () =
  Alcotest.run "engine"
    [
      ( "derive",
        [
          Alcotest.test_case "deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "streams distinct" `Quick
            test_derive_streams_distinct;
          Alcotest.test_case "not identity" `Quick test_derive_differs_from_seed;
        ] );
      ( "run",
        [
          Alcotest.test_case "domain independent" `Quick
            test_run_domain_independent;
          Alcotest.test_case "chunk independent" `Quick
            test_run_chunk_independent;
          Alcotest.test_case "trial indices" `Quick test_run_trial_indices;
          Alcotest.test_case "derived seeds" `Quick test_run_seeds_are_derived;
          Alcotest.test_case "exception propagates" `Quick
            test_run_exception_propagates;
          Alcotest.test_case "reduce = fold" `Quick test_reduce_matches_fold;
          Alcotest.test_case "non-commutative reduce ordered" `Quick
            test_reduce_noncommutative;
          Alcotest.test_case "mean domain independent" `Quick
            test_mean_domain_independent;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "run_float matches run" `Quick
            test_run_float_matches_run;
          Alcotest.test_case "run_into writer + stats" `Quick
            test_run_into_writer;
          Alcotest.test_case "one arena per worker" `Quick
            test_run_local_arena_per_worker;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "chaos report domain independent" `Quick
            test_chaos_report_domain_independent;
        ] );
      ( "explore",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_explore_matches_sequential;
          Alcotest.test_case "crash subtrees" `Quick test_explore_crash_subtrees;
          Alcotest.test_case "truncation reported" `Quick
            test_explore_truncation_reported;
        ] );
      ( "rmr",
        [
          Alcotest.test_case "bitset matches hashtbl" `Quick
            test_rmr_bitset_matches_hashtbl;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile vs naive" `Quick
            test_stats_percentile_matches_naive;
          Alcotest.test_case "summary vs naive" `Quick
            test_stats_summary_matches_naive;
          Alcotest.test_case "array agrees with list" `Quick
            test_stats_array_agrees_with_list;
          Alcotest.test_case "p999 vs naive" `Quick test_stats_p999_matches_naive;
          Alcotest.test_case "percentile edge cases" `Quick
            test_stats_percentile_edge_cases;
        ] );
    ]
