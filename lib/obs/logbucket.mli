(** The log-bucketed histogram: one bucket scheme and one store, read
    by every bucketed percentile in the tree (the service's [`Log]
    latency mode and each quantile window of {!Timeseries}).

    Values map to buckets with 32 sub-buckets per power of two:
    bucket 0 covers [\[0, 1)] (and absorbs negative or NaN inputs),
    and bucket [1 + oct*32 + s] covers
    [\[2^oct * (1 + s/32), 2^oct * (1 + (s+1)/32))]. Every bucket's
    width is at most 1/32 of its lower bound, so a percentile read off
    a bucket midpoint is within ~1.6% (relative) of the exact sample
    percentile. The mapping is monotone, total, and allocation-free.
    Exports name the scheme ["logbucket32"].

    A histogram {!t} holds the bucket counts plus the exact count, sum
    and max. Its counts array starts empty and grows by doubling to the
    largest bucket observed, so a distribution of small values stays
    small; an {!observe} inside the grown range allocates nothing. *)

val count : int
(** Total number of buckets; indices are [0 .. count - 1]. Values at
    or beyond [2^52] clamp into the last bucket. *)

val of_value : float -> int
(** Bucket index for a value. Monotone; never raises. *)

val lower : int -> float
(** Inclusive lower bound of a bucket (0 for bucket 0). *)

val upper : int -> float
(** Exclusive upper bound of a bucket ([infinity] for the last). *)

val midpoint : int -> float
(** Representative value reported for samples in a bucket. Monotone
    in the index. *)

(** {1 The histogram} *)

type t

val create : unit -> t
val observe : t -> float -> unit

val merge_into : into:t -> t -> unit
(** Add [src]'s counts, count and sum into [into] (growing its counts
    array to [src]'s length when shorter) and keep the larger max.
    Associative and commutative (the float sum exactly so while its
    additions are exact, as for integer-valued samples). *)

val copy : t -> t
(** An independent copy, its counts trimmed to the highest nonempty
    bucket. *)

val n : t -> int
val sum : t -> float  (** Exact. *)

val max : t -> float
(** Exact largest sample; meaningless while [n t = 0]. *)

val percentile : t -> float -> float
(** Nearest-rank percentile read off the bucket midpoints and clamped
    to the exact max, so a top-bucket midpoint never exceeds the
    largest sample; 0 when empty. *)
