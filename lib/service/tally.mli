(** What both service drivers count, one tally per shard or worker:
    outcome counts, completion latencies ({!Histo}) and, with a sink,
    the {!Telemetry.recorder} series mirroring them — one call bumps a
    count and its series. Tallies merge associatively. *)

type outcome =
  | Arrived  (** A client's first contact with the service. *)
  | Deadline
  | Crashed  (** A contender lost mid-election. *)
  | Holder_crashed  (** A crashed winner; also a crashed client. *)
  | Shed
  | Retried
  | Stale_win
  | Recovered  (** A forced expiry. *)
  | Round  (** An election round (sim), or a key's move to its next. *)

type t

val create : ?sink:Telemetry.sink -> [ `Exact | `Log ] -> t
val bump : t -> outcome -> at:float -> unit
val complete : t -> at:float -> float -> unit
(** A completion, with its latency. *)

val record : t -> (Telemetry.recorder -> float -> unit) -> float -> unit
(** [record t f at] runs [f] on the recorder, if there is one. *)

val touch : t -> float -> unit
val last : t -> float
(** The latest time passed to [touch]: the run's last activity. *)

val merge_into : into:t -> t -> unit
val counts : t -> clients:int -> Report.counts
val latency : t -> Report.latency option

val snapshot : t -> Obs.Timeseries.snapshot
(** The recorder's series merged with those of every tally folded in. *)
