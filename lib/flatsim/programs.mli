(** Elections hand-compiled to flat {!Machine.program}s, each
    operation- and flip-identical to its effect-handler source (see
    programs.ml for the compilation model and DESIGN.md §13).

    Result encodings match the originals: leader elections finish with
    1 for the unique leader and 0 for losers; {!tas2} finishes with
    [Tas.apply]'s 0 = won / 1 = lost. Process counts must not exceed
    the [n] the program was built for (and [tas2] is strictly
    2-process). *)

val tournament : n:int -> Machine.program
(** lib/leaderelect/tournament.ml: the Afek et al. duel tree. *)

val logstar : n:int -> Machine.program
(** lib/leaderelect/le_logstar.ml: Theorem 2.3's log* chain (Figure-1
    GroupElect levels, splitters, backward duel ladder). *)

val poison : n:int -> Machine.program
(** lib/leaderelect/poison_le.ml: PoisonPill rounds (AGV 2015) on the
    chain's first levels, splitters, backward duel ladder. *)

val sift : n:int -> Machine.program
(** lib/leaderelect/sift_le.ml: sifting levels + tournament finisher. *)

val tas2 : Machine.program
(** The 2-process TAS base: doorway around a duel, ports by pid —
    exactly the E8 [tas_pair] wiring. *)
