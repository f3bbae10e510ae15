(** An executable rendition of the covering argument (Lemma 5.4).

    The proof of Theorem 5.1 schedules a {e determinized} algorithm in
    rounds. The driver below performs those rounds on a real
    implementation running in the simulator:

    - every process first runs until it covers a register (is poised to
      write), never executing a write — the base case;
    - in each round, let [M] be the maximum number of representatives
      covering any register, [R] the registers covered by [M]
      representatives and [R'] those covered by [M - 1]. One covering
      representative per register of [R] performs its write (overwriting
      anything useful on [R]); those processes' groups then run, one
      step at a time, until one of them is poised to write {e outside}
      [R ∪ R'] (Claim 5.3 guarantees this happens). The groups involved
      merge, represented by the newly poised process, so the number of
      representatives drops by [|R| - 1] — exactly the recurrence
      [f(k+1) = f(k) - floor(f(k)/(n-k)) + 1] when every register of [R]
      reaches the theoretical maximum cover.

    Coins are fixed by a deterministic per-process stream (the proof
    fixes nondeterminism up front), and groups are tracked online from
    actual visibility events via union-find: a process that reads a
    register last written by another process joins that writer's
    group (the paper's "sees" relation).

    The run stops when the maximum cover is at most [target_cover]
    (Theorem 5.1 uses 4) or no round can make progress; the report's
    [final_covered] distinct covered registers witness the
    [Omega(log n)] space bound on the implementation under test. *)

type report = {
  rounds : int;
  final_reps : int;  (** Representatives still covering at the end. *)
  final_covered : int;  (** Distinct registers covered by them. *)
  max_cover : int;  (** Maximum cover count at the end. *)
  finished_early : int;  (** Processes that completed during the drive
      (the proof avoids this; a real run may retire a few). *)
  anomalies : int;  (** Rounds in which a group ran to completion without
      writing outside [R ∪ R'] — 0 means Claim 5.3 was never
      contradicted. *)
}

val run :
  ?target_cover:int ->
  ?max_rounds:int ->
  make:(Sim.Memory.t -> n:int -> Leaderelect.Le.t) ->
  n:int ->
  seed:int64 ->
  unit ->
  report
