(** In-process cooperative interleaving of two shared-memory
    computations, on any {!Backend.Mem.S} backend.

    The Section 4 combiner runs RatRace and a weak-adversary algorithm
    within one process, one shared-memory step of each in alternation.
    Both run over a {!Stepped} memory, whose reads and writes first
    perform the local {!Step} effect. A {!t} wraps a computation with a
    handler for [Step] alone: every read/write suspends it just before
    the operation, and {!step} resumes it through exactly one operation
    (so on the simulator it costs exactly one step of the enclosing
    process). Coin flips and probe hooks are not steps: they go straight
    to the backend without suspending. *)

type _ Effect.t += Step : unit Effect.t
(** Performed by {!Stepped} before each register operation. Outside a
    {!spawn}ed computation it is unhandled. *)

(** [M] with every [read] and [write] preceded by one [Step]. *)
module Stepped (M : Backend.Mem.S) :
  Backend.Mem.S
    with type mem = M.mem
     and type reg = M.reg
     and type ctx = M.ctx
     and type 'a table = 'a M.table

type t

type state =
  | Running
  | Finished of bool

val spawn : (unit -> bool) -> t
(** Runs the computation up to its first shared-memory operation. *)

val state : t -> state

val step : t -> unit
(** Perform the pending operation and run to the next one (or to
    completion). No-op if already finished. *)

val abandon : t -> unit
(** Discard a running computation; subsequent {!step}s are no-ops. *)
