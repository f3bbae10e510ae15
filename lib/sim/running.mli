(** The running set of a simulation: the pids still running, in
    ascending order, kept in place. Both kernels hold one — {!Sched}
    and [Flatsim.Machine] — and hand it to an adversary as its view's
    [runnable], so one adversary chooses alike on either.

    The record is exposed so a hot adversary reads the window with
    plain loads; everything else goes through the functions. *)

type t = {
  arr : int array;
      (** [arr.(base) .. arr.(base + n - 1)]: the running pids,
          ascending. *)
  mutable base : int;
  mutable n : int;
  pos : int array;  (** Each running pid's index in [arr]. *)
}

val create : int -> t
(** [create capacity]: every pid in [0, capacity) running. *)

val reset : t -> int -> unit
(** [reset r k]: exactly the pids [0, k) running, allocating nothing.
    Raises [Invalid_argument] unless [0 <= k <= capacity]. *)

val length : t -> int

val get : t -> int -> int
(** [get r i]: the [i]-th running pid in ascending order. *)

val mem : t -> int -> bool
(** O(1). *)

val remove : t -> int -> unit
(** Drop a running pid, keeping the rest ascending, allocating
    nothing: [pos] finds it, and whichever side of the hole is shorter
    shifts one slot toward it. Raises [Invalid_argument] if the pid is
    not running. *)

val append : t -> int -> unit
(** Add a pid above every running one, allocating nothing. Raises
    [Invalid_argument] otherwise, or beyond the capacity. *)
