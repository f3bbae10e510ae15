(** Elections hand-compiled to flat {!Machine.program}s, each
    operation- and flip-identical to its effect-handler source (see
    programs.ml for the compilation model and DESIGN.md §13).

    Built like lib/leaderelect: two spines, each written once — the
    duel climb of a tournament tree and the chain of Theorem 2.3 —
    with the rounds plugged into them. Parameters come from the source
    modules ({!Leaderelect.Le_logstar.default_cutoff},
    {!Leaderelect.Tournament.leaves}, {!Groupelect.Ge_sift.threshold}),
    and so do the register counts: [p_regs] equals the effect path's.

    Leader elections finish with 1 for the unique leader and 0 for
    losers. Process counts must not exceed the [n] the program was
    built for. *)

val tournament : n:int -> Machine.program
(** lib/leaderelect/tournament.ml: the duel climb alone. *)

val logstar : n:int -> Machine.program
(** lib/leaderelect/le_logstar.ml: Theorem 2.3's log* chain over
    Figure-1 GroupElect rounds. *)

val poison : n:int -> Machine.program
(** lib/leaderelect/poison_le.ml: the chain over PoisonPill rounds
    (AGV 2015). *)

val sift : n:int -> Machine.program
(** lib/leaderelect/sift_le.ml: sifting levels, then the duel climb. *)
