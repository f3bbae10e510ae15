(** Randomized test-and-set from atomic registers — a reproduction of
    Giakkoupis and Woelfel, {e On the Time and Space Complexity of
    Randomized Test-And-Set} (PODC 2012).

    Entry points:
    - {!Election} runs any of the algorithms in one call;
    - {!Registry} catalogs the algorithms and their proven bounds;
    - the re-exported libraries give full access to every layer, from
      the shared-memory simulator ({!Sim}) to the lower-bound machinery
      ({!Lowerbound}). Every registry entry also runs on real domains
      through [Backend.Atomic_mem]. *)

module Registry = Registry
module Election = Election

(** Report rendering for the Probe observability layer
    ([rtas_cli trace]/[rtas_cli profile]). *)
module Probe_report = Probe_report

(** The simulation substrate: registers, effect-based processes,
    adversarial schedulers, bounded model checking. *)
module Sim = Sim

(** Splitters, 2-/3-process leader election, TAS-from-LE. *)
module Primitives = Primitives

(** Group Election objects (Section 2): Figure 1, sifting, dummy. *)
module Groupelect = Groupelect

(** RatRace structures (Section 3): elimination paths, primary tree,
    backup grid, classic and lean RatRace. *)
module Ratrace = Ratrace

(** Leader elections (Section 2): the chain construction, log*, loglog,
    AA and tournament baselines. *)
module Leaderelect = Leaderelect

(** Adversary independence (Section 4). *)
module Combined = Combined

(** Lower bounds (Sections 5-6): covering recurrences, the covering
    harness, Yao-style 2-process experiments. *)
module Lowerbound = Lowerbound

(** n-process randomized consensus from adopt-commit and conciliators. *)
module Consensus = Consensus
