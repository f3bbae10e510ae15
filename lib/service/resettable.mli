(** Resettable test-and-set / leader election: the round-stamped
    wrapper that turns the library's {e one-shot} election objects into
    a reusable lock.

    Every election in the registry — the paper's RatRace construction,
    the tournament, sift, elimination — is a one-shot object: each
    process may invoke [elect] at most once, and the object can never
    be won a second time. A lock service needs the opposite: the same
    key acquired and released millions of times. The follow-up papers
    (Giakkoupis–Helmi–Higham–Woelfel's Θ(log n)-space TAS,
    Alistarh–Gelashvili–Vladu's PoisonPill) are equally single-use, so
    reuse has to be built {e around} the one-shot object, not inside
    it. This module is that layer.

    {2 The round-stamp protocol}

    A resettable instance is a single atomic cell holding either
    [Open {round; inst; since}] — round [round] is up for grabs on the
    fresh one-shot instance [inst] — or [Held {round; owner; since}].
    Three CAS transitions exist:

    - {!claim}: [Open {round = r}] → [Held {round = r}]. Performed by a
      client that {e won} [inst]'s one-shot election.
    - {!release}: [Held {round = r}] → [Open {round = r+1; inst'}] with
      [inst'] freshly built by the election factory. Performed by the
      owner.
    - {!force_expire}: any state stamped [r] → [Open {round = r+1;
      inst'}]. The recovery path: anyone may fire it when the [since]
      timestamp shows the round has outlived its lease (a crashed
      holder, or a winner that died between winning and claiming).

    {2 Unique winner per round}

    At most one client ever holds a given round [r]:
    {ul
    {- the one-shot election of instance [r] has at most one winner
       among clients that invoke it at most once each (the underlying
       object's guarantee — callers enforce at-most-once with a
       per-client round stamp: never elect twice on the same round);}
    {- only an election winner attempts {!claim}, and the CAS succeeds
       only from [Open {round = r}];}
    {- the round number in the cell never decreases and every
       transition out of round [r] installs [r+1], so once any
       transition from [Open {round = r}] happens, no [Open] with round
       [r] ever exists again — a second claim of [r], or a claim racing
       a {!force_expire}, loses the CAS and reports a stale win.}}

    Hence even a crashed holder cannot wedge the key: its round is
    expired by whoever notices the stale lease, the next round's fresh
    instance goes up, and the invariant is untouched because stale
    winners are rejected by the CAS, not by trust.

    The cell is an [Atomic.t], so the same wrapper code is used
    single-threaded by the simulator's deterministic driver (where the
    CAS never fails and costs a few nanoseconds) and raced by real
    domains in the [Atomic_mem] driver. *)

type 'i state =
  | Open of { round : int; inst : 'i; since : float }
  | Held of { round : int; owner : int; since : float }

module type ELECTION = sig
  type instance

  val fresh : key:int -> round:int -> instance
  (** A fresh one-shot instance for [key]'s round [round]. Called once
      per installed round. The simulator backend implements this as
      arena reuse: every key of an event loop gets the loop's one
      arena, built once when the loop starts and reset at the start of
      each round (a loop runs one round at a time, each to completion) —
      while the atomic backend allocates a new structure. Must be safe
      to call for a round that then loses its installing CAS (the
      instance is simply dropped; with arena reuse the installing
      transitions are never concurrent, see {!Make.release}). *)
end

module Make (E : ELECTION) : sig
  type t

  val create : key:int -> now:float -> t
  (** A key starting at round 0 with a fresh instance. *)

  val key : t -> int

  val round : t -> int
  (** The round currently installed (monotonically non-decreasing). *)

  val state : t -> E.instance state

  val claim : t -> round:int -> owner:int -> now:float -> bool
  (** [claim t ~round ~owner ~now] — CAS [Open {round}] →
      [Held {round; owner; since = now}]. [false] means the round moved
      on (stale win): the caller must treat its election win as void
      and retry on a later round. *)

  val release : t -> round:int -> owner:int -> now:float -> bool
  (** CAS [Held {round; owner}] → [Open {round + 1; fresh; since =
      now}]. [false] when the round was force-expired first. *)

  val force_expire : t -> round:int -> now:float -> bool
  (** Recovery: CAS any state stamped [round] → [Open {round + 1;
      fresh; since = now}]. [false] when the round already moved on
      (somebody else recovered it, or it released normally). *)

  val expiries : t -> int
  (** Successful {!force_expire} transitions, for reports. *)
end
