(* Parallel trial engine: a domain-pool runner with chunked work
   distribution, deterministic per-trial seed derivation, reusable
   per-worker arenas, and GC observability.

   Determinism contract: trial [t] of a batch seeded with [seed] always
   runs with the derived seed [Sim.Rng.derive seed ~stream:t], and results
   land in slot [t] of the result sink, so the output is bit-identical
   no matter how many domains execute the batch (including 1) or how
   the dynamic chunking interleaves. Aggregation folds that sink in
   trial order (or merges per-chunk accumulators in chunk order), which
   keeps every reduction deterministic as well.

   Allocation discipline: the boxed ['a option array] sink is gone —
   [run] seeds its result array with trial 0's value, [run_float] writes
   unboxed into a [floatarray], and [run_into] lets the caller own the
   sink entirely. A worker builds its trial state once ([local], e.g. a
   [Sim.Memory]/[Sim.Sched] arena reset per trial) instead of once per
   trial; per-domain [Gc.quick_stat] deltas make the difference
   measurable (see [worker_stats] and DESIGN.md §9). *)

let recommended () = Domain.recommended_domain_count ()

let default_domains () =
  match Sys.getenv_opt "RTAS_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ -> recommended ())
  | None -> recommended ()

(* Warn (once per process) when a caller asks for more domains than the
   host can actually run in parallel: the batch still computes the same
   results — the contract is domain-count independence — but the extra
   domains only add spawn and scheduling overhead. *)
let overcommit_warned = Atomic.make false

let warn_overcommit d =
  if d > recommended () && not (Atomic.exchange overcommit_warned true) then
    Printf.eprintf
      "engine: %d domains requested but the host recommends %d; results are \
       identical for every domain count, the extra domains only add \
       overhead\n%!"
      d (recommended ())

let resolve_domains = function
  | Some d when d >= 1 ->
      warn_overcommit d;
      d
  | Some _ -> invalid_arg "Engine: domains must be >= 1"
  | None -> default_domains ()

(* Dynamic chunked distribution over [lo, hi): workers repeatedly grab
   the next chunk of indices from a shared atomic cursor. Chunks
   amortise the cursor contention; the default aims for ~8 chunks per
   domain so stragglers still balance. *)
let chunk_size ~chunk ~domains ~trials =
  match chunk with
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Engine: chunk must be >= 1"
  | None -> max 1 (trials / (domains * 8))

type worker_stats = {
  w_worker : int;
  w_trials : int;
  w_chunks : int;
  w_minor_words : float;
  w_promoted_words : float;
  w_major_words : float;
  w_minor_collections : int;
  w_major_collections : int;
}

let idle_worker w =
  {
    w_worker = w;
    w_trials = 0;
    w_chunks = 0;
    w_minor_words = 0.0;
    w_promoted_words = 0.0;
    w_major_words = 0.0;
    w_minor_collections = 0;
    w_major_collections = 0;
  }

let delta_stats ~worker ~trials ~chunks (s0 : Gc.stat) (s1 : Gc.stat) =
  {
    w_worker = worker;
    w_trials = trials;
    w_chunks = chunks;
    w_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    w_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    w_major_words = s1.Gc.major_words -. s0.Gc.major_words;
    w_minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    w_major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
  }

(* The dispatch core: run [one l t] for every [t] in [lo, hi), with
   [local] evaluated once per participating worker, in that worker's
   domain (so its allocations, and the trials', land in that domain's
   own minor heap). Returns per-worker GC/chunk statistics; slot 0 is
   the calling domain. *)
let dispatch ~domains ~chunk ~lo ~hi ~local one =
  let trials = hi - lo in
  if trials <= 0 then [||]
  else if domains = 1 || trials = 1 then begin
    let s0 = Gc.quick_stat () in
    let l = local () in
    for t = lo to hi - 1 do
      one l t
    done;
    [| delta_stats ~worker:0 ~trials ~chunks:1 s0 (Gc.quick_stat ()) |]
  end
  else begin
    let chunk = chunk_size ~chunk ~domains ~trials in
    let cursor = Atomic.make lo in
    let nworkers = min domains trials in
    let stats = Array.init nworkers idle_worker in
    let worker w () =
      let s0 = Gc.quick_stat () in
      let l = local () in
      let ran = ref 0 and chunks = ref 0 in
      let finish () =
        stats.(w) <-
          delta_stats ~worker:w ~trials:!ran ~chunks:!chunks s0
            (Gc.quick_stat ())
      in
      let continue = ref true in
      (try
         while !continue do
           let clo = Atomic.fetch_and_add cursor chunk in
           if clo >= hi then continue := false
           else begin
             incr chunks;
             for t = clo to min hi (clo + chunk) - 1 do
               one l t;
               incr ran
             done
           end
         done
       with e ->
         finish ();
         raise e);
      finish ()
    in
    let helpers =
      Array.init (nworkers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1) ()))
    in
    let main_exn = (try worker 0 (); None with e -> Some e) in
    (* Always join every helper; re-raise the first failure observed. *)
    let helper_exn =
      Array.fold_left
        (fun acc d ->
          match (try Domain.join d; None with e -> Some e) with
          | Some _ as e when acc = None -> e
          | _ -> acc)
        None helpers
    in
    match (main_exn, helper_exn) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> stats
  end

(* Probed batches: each participating worker builds its own probe
   handle + sink via [probe ()] inside its domain, installs the sink in
   that domain's Probe slot, and builds its arena with the handle in
   scope. Handles land in per-worker slots claimed off an atomic
   counter (claim order is scheduling-dependent, which is why callers
   get a list to merge with an associative, commutative merge). Helper
   domains die with their sink installed — only the calling domain's
   slot needs restoring. *)
let run_probed ?domains ?chunk ~trials ~seed ~probe ~local f =
  if trials < 0 then invalid_arg "Engine: trials must be >= 0";
  let domains = resolve_domains domains in
  let nworkers =
    if trials <= 0 then 0
    else if domains = 1 || trials = 1 then 1
    else min domains trials
  in
  let handles = Array.make (max nworkers 1) None in
  let widx = Atomic.make 0 in
  let prev = Obs.Probe.current () in
  let local_w () =
    let w = Atomic.fetch_and_add widx 1 in
    let h, sink = probe () in
    handles.(w) <- Some h;
    Obs.Probe.install sink;
    local h
  in
  let restore () =
    match prev with
    | Some s -> Obs.Probe.install s
    | None -> Obs.Probe.uninstall ()
  in
  let stats =
    Fun.protect ~finally:restore (fun () ->
        dispatch ~domains ~chunk ~lo:0 ~hi:trials ~local:local_w (fun l t ->
            f l ~trial:t ~seed:(Sim.Rng.derive seed ~stream:t)))
  in
  (stats, List.filter_map Fun.id (Array.to_list handles))

let run_into ?domains ?chunk ~trials ~seed ~local write =
  if trials < 0 then invalid_arg "Engine: trials must be >= 0";
  let domains = resolve_domains domains in
  dispatch ~domains ~chunk ~lo:0 ~hi:trials ~local (fun l t ->
      write l ~trial:t ~seed:(Sim.Rng.derive seed ~stream:t))

let run_float ?domains ?chunk ~trials ~seed ~local f =
  if trials < 0 then invalid_arg "Engine: trials must be >= 0";
  let domains = resolve_domains domains in
  let results = Float.Array.create trials in
  ignore
    (dispatch ~domains ~chunk ~lo:0 ~hi:trials ~local (fun l t ->
         Float.Array.unsafe_set results t
           (f l ~trial:t ~seed:(Sim.Rng.derive seed ~stream:t))));
  results

let run_local ?domains ?chunk ~trials ~seed ~local f =
  if trials < 0 then invalid_arg "Engine: trials must be >= 0";
  let domains = resolve_domains domains in
  if trials = 0 then [||]
  else begin
    (* Seeding the result array with trial 0's value (instead of [None])
       kills the per-trial [Some] box; trial 0 runs on the calling
       domain before the fan-out. *)
    let l0 = local () in
    let v0 = f l0 ~trial:0 ~seed:(Sim.Rng.derive seed ~stream:0) in
    let results = Array.make trials v0 in
    if trials > 1 then begin
      let local = if domains = 1 then fun () -> l0 else local in
      ignore
        (dispatch ~domains ~chunk ~lo:1 ~hi:trials ~local (fun l t ->
             results.(t) <- f l ~trial:t ~seed:(Sim.Rng.derive seed ~stream:t)))
    end;
    results
  end

let run ?domains ?chunk ~trials ~seed f =
  run_local ?domains ?chunk ~trials ~seed
    ~local:(fun () -> ())
    (fun () ~trial ~seed -> f ~trial ~seed)

(* Seedless fan-out for callers that manage their own derived streams
   per task (e.g. the sharded service driver, whose shard results are a
   pure function of the shard index): the engine only provides the
   domain pool and the deterministic result order. *)
let tasks ?domains ?chunk ~n f =
  run ?domains ?chunk ~trials:n ~seed:0L (fun ~trial ~seed:_ -> f trial)

let fold ?domains ?chunk ~trials ~seed ~init ~add f =
  Array.fold_left add init (run ?domains ?chunk ~trials ~seed f)

type ('a, 'acc) reducer = {
  empty : unit -> 'acc;
  add : 'acc -> 'a -> 'acc;
  merge : 'acc -> 'acc -> 'acc;
}

let reduce ?domains ?chunk ~trials ~seed ~reducer f =
  let domains = resolve_domains domains in
  let chunk = chunk_size ~chunk ~domains ~trials in
  (* Chunk boundaries depend only on [trials] and [chunk], never on
     which domain claimed the chunk, so merging the per-chunk
     accumulators left-to-right is deterministic. *)
  let chunks = (trials + chunk - 1) / chunk in
  let accs = Array.init chunks (fun _ -> None) in
  let one () t =
    let ci = t / chunk in
    let acc = match accs.(ci) with None -> reducer.empty () | Some a -> a in
    accs.(ci) <-
      Some (reducer.add acc (f ~trial:t ~seed:(Sim.Rng.derive seed ~stream:t)))
  in
  ignore
    (dispatch ~domains ~chunk:(Some chunk) ~lo:0 ~hi:trials
       ~local:(fun () -> ())
       one);
  Array.fold_left
    (fun acc slot ->
      match slot with None -> acc | Some a -> reducer.merge acc a)
    (reducer.empty ()) accs

let mean ?domains ?chunk ~trials ~seed f =
  if trials <= 0 then invalid_arg "Engine.mean: trials must be >= 1";
  let results =
    run_float ?domains ?chunk ~trials ~seed
      ~local:(fun () -> ())
      (fun () ~trial ~seed -> f ~trial ~seed)
  in
  (* In-order fold over the unboxed sink: deterministic and box-free. *)
  let sum = ref 0.0 in
  Float.Array.iter (fun x -> sum := !sum +. x) results;
  !sum /. float_of_int trials

(* {1 Parallel bounded exploration}

   Fans [Sim.Explore]'s DFS out over the independent subtrees of the
   first choice point: the prefix execution runs once (the probe), then
   each child prefix [c] is a self-contained DFS that any domain can
   own. Per-path tail-seed derivation in [Sim.Explore] makes the union
   of the subtree enumerations identical to the sequential search. *)

type explore_result = { executions : int; truncated : bool }

let explore ?domains ?(max_paths = 2_000_000) ?(seed = 0xE8920AL)
    ?(max_crashes = 0) ?(max_total_steps = 10_000_000) ~depth ~programs ~check
    () =
  let domains = resolve_domains domains in
  if domains = 1 then begin
    let (s : Sim.Explore.stat) =
      Sim.Explore.explore_stat ~max_paths ~seed ~max_crashes ~max_total_steps
        ~depth ~programs ~check ()
    in
    { executions = s.executions; truncated = s.truncated }
  end
  else
    match
      Sim.Explore.probe ~seed ~max_crashes ~max_total_steps ~depth ~programs
        ~check ()
    with
    | None -> { executions = 1; truncated = false }
    | Some arity ->
        (* Budget split: each subtree may spend an equal share of the
           remaining path budget. When the budget binds, the sequential
           search spends it depth-first instead, so counts can differ —
           the [truncated] flag records that the enumeration (unlike an
           exhaustive search) was cut short. *)
        let budget = max 1 ((max_paths - 1) / arity) in
        let stats =
          run ~domains ~trials:arity ~seed (fun ~trial:c ~seed:_ ->
              Sim.Explore.explore_stat ~max_paths:budget ~seed ~max_crashes
                ~max_total_steps ~prefix:[| c |] ~depth ~programs ~check ())
        in
        {
          executions =
            1
            + Array.fold_left
                (fun a (s : Sim.Explore.stat) -> a + s.executions)
                0 stats;
          truncated =
            Array.exists (fun (s : Sim.Explore.stat) -> s.truncated) stats;
        }
