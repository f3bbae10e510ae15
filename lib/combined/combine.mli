(** Adversary independence (Section 4, Theorem 4.1).

    Runs the lean RatRace and a weak-adversary leader election [A] in
    parallel within each process, one step of each in alternation, and
    reconciles them with an auxiliary 2-process election [LEtop]:

    + a process that wins either execution stops the other and enters
      [LEtop] (RatRace winner on port 0, [A] winner on port 1); the
      [LEtop] winner wins;
    + a process that loses RatRace stops [A] and loses;
    + a process that loses [A] stops RatRace and loses — {e unless} it
      has already won a splitter inside RatRace, in which case it keeps
      running RatRace alone (this exception prevents executions in which
      everybody loses).

    The result has the step complexity of [A] against [A]'s weak
    adversary and O(log k) against the adaptive adversary, with
    Theta(n) registers plus the space of [A].

    RatRace and [A] run over {!Coroutine.Stepped}[ (M)], so the
    alternation works on every backend; [LEtop] runs on [M] directly.
    [create ~name] names RatRace's registers [<name>.rr] and [LEtop]'s
    [<name>.top]; [A] keeps its own default name. Corollary 4.2 is
    [Make (Leaderelect.Le_logstar.Make)] (location-oblivious) and
    [Make (Leaderelect.Le_loglog.Make)] (R/W-oblivious). *)

module Make (A : Leaderelect.Le.S) : Leaderelect.Le.S
