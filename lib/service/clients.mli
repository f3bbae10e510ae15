(** The open-loop workload both service drivers replay, with the sim
    driver's per-client state.

    Per-client bookkeeping lives in parallel scalar arrays indexed by
    client id — no per-client records, no GC pressure as the client
    dial turns up — exposed flatsim-style, so the driver's hot path
    reads and writes fields as direct array loads/stores. [qnext]
    chains each key's waiting clients into an intrusive FIFO. *)

type t = {
  arrival : float array;  (** arrival time, ticks *)
  key : int array;  (** Zipfian lock key *)
  attempts : int array;  (** election attempts so far (backoff stage) *)
  stamp : int array;  (** last round contended in, -1 = none *)
  state : int array;  (** 0 = pending, 1 = resolved *)
  qnext : int array;  (** intrusive wait-queue link, -1 = end *)
}

val schedule :
  seed:int64 -> Arrival.kind -> keys:int -> zipf_s:float -> int -> t
(** [n] pending clients: arrival times (increasing) from derive stream
    10 of [seed], keys Zipfian over [keys] from stream 11. Raises
    [Invalid_argument] on [n < 1]. *)
