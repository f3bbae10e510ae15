(** Parallel trial engine: run batches of independent simulated trials
    across OCaml 5 domains with bit-identical results regardless of the
    domain count.

    {2 Determinism contract}

    Trial [t] of a batch seeded with [seed] always executes with the
    derived seed [Sim.Rng.derive seed ~stream:t] and deposits its result
    in slot [t]; the chunked work distribution only decides {e which
    domain} runs a trial, never {e what} the trial computes. Hence
    [run ~domains:1] and [run ~domains:8] return equal arrays, and every
    aggregation below — an in-order fold, or per-chunk accumulators
    merged in chunk order — is equally domain-count-independent.

    {2 Arenas and allocation discipline}

    Trial bodies must not share mutable state across domains. They may
    share mutable state {e within} a worker through the [local] arena of
    {!run_local}/{!run_float}/{!run_into}: [local ()] is evaluated once
    per participating worker (in that worker's domain) and handed to
    every trial that worker runs. The intended pattern is a reusable
    simulation arena — build the [Sim.Memory.t], the algorithm structure
    and the [Sim.Sched.t] once, then [Sim.Memory.reset] +
    [Sim.Sched.reset] per trial — which eliminates the per-trial
    construction cost entirely. The caller must guarantee a reused
    arena yields the same per-trial result as a fresh one (reset
    everything the trial mutates); the determinism contract then holds
    unchanged. *)

val default_domains : unit -> int
(** [RTAS_DOMAINS] from the environment if set to a positive integer,
    else [Domain.recommended_domain_count ()]. *)

type worker_stats = {
  w_worker : int;  (** Worker index; 0 is the calling domain. *)
  w_trials : int;  (** Trials this worker executed. *)
  w_chunks : int;  (** Chunks this worker claimed. *)
  w_minor_words : float;
  w_promoted_words : float;
  w_major_words : float;
  w_minor_collections : int;
  w_major_collections : int;
}
(** Per-worker observability for a batch: how the dynamic chunking
    balanced the work, and the worker domain's [Gc.quick_stat] deltas
    over its whole participation (arena construction included). The
    allocation columns are the direct measure of trial-loop allocation
    discipline — the benchmark reports them as
    [engine.minor_words_per_trial] (rtasbench/). *)

val run :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  (trial:int -> seed:int64 -> 'a) ->
  'a array
(** [run ~trials ~seed f] evaluates [f ~trial:t ~seed:(derive seed t)]
    for [t] in [\[0, trials)] on a pool of [domains] domains (default
    {!default_domains}; [1] runs inline without spawning) and returns
    the per-trial results in trial order. Work is handed out in chunks
    of [chunk] trials (default: ~8 chunks per domain). An exception in
    any trial is re-raised after all domains are joined. Trial 0 runs
    first on the calling domain: its value seeds the result array, so
    no per-trial [option] boxing occurs. *)

val tasks : ?domains:int -> ?chunk:int -> n:int -> (int -> 'a) -> 'a array
(** Seedless task fan-out: evaluate [f i] for [i] in [\[0, n)] on the
    domain pool and return the results in task order. For callers whose
    tasks are already pure functions of the task index and manage their
    own derived streams — the sharded service driver runs its shards
    through this. The determinism contract is {!run}'s: which domain
    runs a task never changes what it computes, so the result array is
    identical for any [domains]. Tasks must not share mutable state. *)

val run_local :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  local:(unit -> 'w) ->
  ('w -> trial:int -> seed:int64 -> 'a) ->
  'a array
(** {!run} with a per-worker arena: [f] receives the value [local ()]
    built by the worker that runs the trial (see the module preamble).
    Trial 0 runs on the calling domain with its own [local ()]. *)

val run_float :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  local:(unit -> 'w) ->
  ('w -> trial:int -> seed:int64 -> float) ->
  floatarray
(** {!run_local} for float-valued trials, writing results unboxed into
    a [floatarray]: no per-trial allocation on the result path at all
    (pass [~local:(fun () -> ())] when no arena is needed). *)

val run_probed :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  probe:(unit -> 'p * Obs.Probe.sink) ->
  local:('p -> 'w) ->
  ('w -> trial:int -> seed:int64 -> unit) ->
  worker_stats array * 'p list
(** {!run_into} with per-worker observability: every participating
    worker evaluates [probe ()] in its own domain to obtain a probe
    handle (e.g. an [Obs.Collector.t]) plus the sink feeding it,
    installs the sink in that domain's [Obs.Probe] slot {e before}
    building its arena with [local], and the handles of all workers are
    returned next to the usual {!worker_stats}. Because which worker
    runs how many trials is scheduling-dependent, the handle list is in
    no particular order — aggregate with an associative and commutative
    merge ([Obs.Collector.merge] of the snapshots), which yields
    domain-count-independent totals for domain-count-independent trial
    bodies. The calling domain's previously installed sink (if any) is
    restored afterwards. *)

val run_into :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  local:(unit -> 'w) ->
  ('w -> trial:int -> seed:int64 -> unit) ->
  worker_stats array
(** The into-style writer API: the caller owns the result sink — the
    callback writes trial [t]'s outcome wherever it wants (a
    preallocated [int array], a [Bigarray], a float array slice...),
    and the engine materialises nothing. Distinct trials must write to
    distinct locations, so concurrent workers never race. Returns the
    per-worker statistics of the batch (slot 0 = the calling domain);
    the other runners discard them. *)

val fold :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  init:'b ->
  add:('b -> 'a -> 'b) ->
  (trial:int -> seed:int64 -> 'a) ->
  'b
(** {!run}, then fold the result array left-to-right: deterministic for
    any [add]. *)

type ('a, 'acc) reducer = {
  empty : unit -> 'acc;
  add : 'acc -> 'a -> 'acc;
  merge : 'acc -> 'acc -> 'acc;
}
(** A mergeable accumulator. [merge] must be associative with [empty ()]
    as identity for the reduction to be meaningful; it need {e not} be
    commutative — accumulators are merged in chunk order. *)

val reduce :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  reducer:('a, 'acc) reducer ->
  (trial:int -> seed:int64 -> 'a) ->
  'acc
(** Like {!fold} but without materialising the per-trial array: each
    chunk folds into its own accumulator as its trials complete, and the
    per-chunk accumulators are merged left-to-right at the end. Chunk
    boundaries depend only on [trials] and [chunk], so the result is
    bit-identical for any domain count. *)

val mean :
  ?domains:int ->
  ?chunk:int ->
  trials:int ->
  seed:int64 ->
  (trial:int -> seed:int64 -> float) ->
  float
(** Arithmetic mean of a float-valued batch, accumulated in trial order
    over the unboxed {!run_float} sink. Raises [Invalid_argument] when
    [trials <= 0]. *)

type explore_result = {
  executions : int;  (** Executions run and checked. *)
  truncated : bool;
      (** [true] when the [max_paths] budget cut the enumeration short
          (in the parallel case: in at least one subtree). A truncated
          count is a lower bound and — because the parallel search
          splits the budget evenly across subtrees while the sequential
          one spends it depth-first — may differ from the sequential
          count. Exhaustive searches ([truncated = false]) match the
          sequential enumeration exactly. *)
}

val explore :
  ?domains:int ->
  ?max_paths:int ->
  ?seed:int64 ->
  ?max_crashes:int ->
  ?max_total_steps:int ->
  depth:int ->
  programs:(unit -> (Sim.Ctx.t -> int) array) ->
  check:(Sim.Sched.t -> unit) ->
  unit ->
  explore_result
(** Parallel {!Sim.Explore.explore}: the empty-prefix execution is
    probed once, then the independent subtrees of the first choice point
    fan out over the domain pool, each enumerated by the sequential DFS
    restricted to its prefix. Because tail randomness is derived from
    the path, the set of executions matches the sequential search
    whenever [max_paths] does not truncate it; truncation is never
    silent — it is reported in the result. [check] runs concurrently on
    several domains: it must only touch the scheduler it is handed (or
    synchronise its own shared state). An exception raised by [check]
    aborts the search and is re-raised. *)
