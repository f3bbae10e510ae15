(** The open-loop workload both service drivers replay, as a stream.

    A value is the next client to arrive: its index (the client id), its
    arrival time and its key. {!advance} draws the one after it, so a
    driver holds no per-client state for clients that have not arrived
    yet. Arrival times (increasing) come from derive stream 10 of the
    seed and Zipfian keys over [keys] from stream 11; every stream made
    from the same arguments yields the same clients, which is how each
    event loop of {!Driver} and each worker of {!Mc_driver} replays the
    one schedule, skipping the clients it does not serve. Arrival times
    never decrease, so a loop merges the stream with its event queue
    without queueing it.

    The record is exposed so the drivers read the next client as direct
    field loads; it is private, so they cannot write it. The arrival
    time sits in a record of its own: a record of floats only stores
    them unboxed, so advancing writes the time without a write
    barrier. *)

type time = private { mutable at : float }

type t = private {
  arrivals : Arrival.t;
  zipf : Zipf.t;
  zrng : Sim.Rng.t;
  clients : int;  (** Clients in the stream. *)
  mutable index : int;
      (** The next client's id; [clients] once the stream is drained. *)
  time : time;
      (** Its arrival time [time.at], ticks (stale once drained). *)
  mutable key : int;  (** Its Zipfian lock key (stale once drained). *)
}

val create :
  seed:int64 -> Arrival.kind -> keys:int -> zipf_s:float -> int -> t
(** A stream of [n] clients, positioned on client 0. Raises
    [Invalid_argument] on [n < 1]. *)

val advance : t -> unit
(** Move on to the next client. *)
