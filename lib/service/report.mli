(** Lock-service run reports: per-run counts, exact completion-latency
    percentiles, machine-readable JSON, and {!Obs.Metrics} feeding.

    All times are in ticks — the simulator's virtual step unit; the
    atomic driver maps one tick to a microsecond — so the two backends
    share one schema and one [jq] surface. Throughput is completions
    per kilotick (for the atomic backend that is completions per
    millisecond). *)

type counts = {
  clients : int;  (** Arrivals generated. *)
  completed : int;  (** Acquired their key within the deadline. *)
  deadline_exceeded : int;
  crashed_clients : int;  (** Lost to injected crashes (election or holder). *)
  holder_crashes : int;  (** Injected crashes of winners/holders. *)
  forced_expiries : int;  (** Round-stamp recovery transitions. *)
  shed : int;  (** Rejected by the overload shed capacity. *)
  retries : int;  (** Re-attempts after losing a round. *)
  rounds : int;  (** Election rounds run. *)
  stale_wins : int;  (** Wins voided because the round had expired. *)
}

val zero_counts : clients:int -> counts

val balanced : ?shed_terminal:bool -> counts -> bool
(** Every client ended in exactly one terminal bucket:
    [completed + deadline_exceeded + crashed_clients + shed = clients].
    With [~shed_terminal:false] (the driver's retry-on-shed mode,
    where a shed is a rejection {e event}, not a client outcome) the
    [shed] term leaves the partition. *)

type latency = {
  l_mode : string;
      (** ["exact"] (per-sample percentiles) or ["hist"] (log-bucketed,
          bounded memory — percentiles within ~1.6% relative). *)
  l_n : int;
  l_mean : float;  (** Exact in both modes. *)
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_p999 : float;
  l_max : float;  (** Exact in both modes. *)
}

type t = {
  backend : string;  (** ["sim"] or ["atomic"]. *)
  algorithm : string;
  keys : int;
  zipf_s : float;
  arrival : string;  (** {!Arrival.describe}. *)
  backoff : string;  (** {!Backoff.describe}. *)
  deadline : float;
  hold : float;
  crash_prob : float;
  workers : int;
  seed : int64;
  duration : float;  (** Run length in ticks. *)
  throughput : float;  (** Completions per kilotick. *)
  counts : counts;
  latency : latency option;  (** [None] when nothing completed. *)
  livelocked : bool;  (** Watchdog gave up on a real-domain run. *)
  diagnosis : string option;  (** Per-worker progress when livelocked. *)
}

val latency_of_samples : float array -> latency option
(** Exact nearest-rank percentiles (one sort); [None] on the empty
    sample. Does not mutate its argument. *)

val latency_of_histo : Histo.t -> latency option
(** Latency block from a {!Histo} in either mode; [None] when nothing
    was observed. *)

val to_json : t -> string
(** A single JSON object; stable field order, so a fixed-seed simulator
    run emits byte-identical JSON. *)

val pp : t Fmt.t
