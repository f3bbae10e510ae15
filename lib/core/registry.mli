(** Catalog of every leader-election implementation in the library, with
    the complexity bounds the paper (or its cited baselines) proves for
    each. Used by the benchmarks, the CLI and the examples to iterate
    over algorithms uniformly.

    Each algorithm has exactly one source — a functor matching
    {!Leaderelect.Le.S} — and one helper applies it to both backends:
    [make] builds the {!Backend.Sim_mem} instance and [make_mc] the
    {!Backend.Atomic_mem} one, with the same registers in the same
    order, so either arena's [allocated] count is the entry's register
    count. A third backend would be one more application in that
    helper, not a constructor per algorithm. Every entry, classic
    RatRace's Theta(n^3) declared registers included, runs on both:
    either backend's tables build a node on first access. *)

type entry = {
  name : string;
  make : Sim.Memory.t -> n:int -> Leaderelect.Le.t;
  make_mc :
    Backend.Atomic_mem.mem ->
    n:int ->
    Backend.Atomic_mem.ctx Leaderelect.Le.elect;
      (** [Backend.Atomic_mem] instantiation of the same functor, built
          in the given arena as [make] builds in its [Sim.Memory.t]. *)
  make_flat : (n:int -> Flatsim.Machine.program) option;
      (** Flat-kernel compilation of the same algorithm
          ({!Flatsim.Programs}), when one exists. Bit-identical to
          [make] under matching seeds and schedules (pinned by the
          flat-vs-effect differential test); the hot-election set the
          benchmark's [trials] workload and the service driver's
          [--kernel flat] path run on. *)
  adversary : Sim.Sched.klass;
      (** Strongest adversary class against which the step bound holds. *)
  steps : string;  (** Expected step complexity, as stated in the paper. *)
  space : string;  (** Register count. *)
  reference : string;
}

val all : entry list

val find : string -> entry option

val names : unit -> string list

val lookup : who:string -> string -> entry
(** [lookup ~who name] is the entry called [name]. Raises
    [Invalid_argument "<who>: unknown algorithm ... (expected one of:
    ...)"] listing {!names} otherwise. *)

val flat : unit -> entry list
(** The entries carrying a flat-kernel compilation ([make_flat]
    present) — the ones the flat differential test, the benchmark's
    [trials] workload and [rtas service --kernel flat] can iterate. *)

val flat_names : unit -> string list
