(** Small descriptive-statistics helpers for experiment harnesses.

    All summaries are computed with a single sort of the sample plus a
    one-pass Welford mean/variance — no repeated sorting per percentile,
    no [List.nth] walks — so they stay cheap on the engine's large
    per-trial result arrays. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1); 0 for n < 2. *)
  min : float;
  max : float;
  median : float;
  p95 : float;
  p999 : float;
      (** Nearest-rank 99.9th percentile — the tail-latency metric the
          service benchmarks report. Equals [max] for samples smaller
          than 1000. *)
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val summarize_array : float array -> summary
(** Like {!summarize} on an array (the engine's native result shape).
    Does not mutate its argument. Raises [Invalid_argument] on [[||]]. *)

val summarize_sorted : float array -> summary
(** Like {!summarize_array} but assumes the array is already sorted
    ascending, skipping the sort (and the defensive copy). *)

val mean : float list -> float

val mean_array : float array -> float

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0, 1\]], nearest-rank on the sorted
    sample. *)

val percentile_sorted : float array -> float -> float
(** Nearest-rank percentile on an already-sorted array: O(1) per call,
    so summarising many percentiles costs one sort total.

    Edge cases are explicit rather than falling out of index
    arithmetic: the empty array raises [Invalid_argument] (never an
    out-of-bounds access), a single-element array returns its element
    for every [p], and [p] outside [\[0, 1\]] raises
    [Invalid_argument]. *)

val percentile_sorted_opt : float array -> float -> float option
(** Total variant of {!percentile_sorted}: [None] on the empty array
    (still raises on [p] outside [\[0, 1\]] — that is a caller bug, not
    a data shape). *)
