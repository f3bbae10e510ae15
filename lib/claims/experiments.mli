(** The paper's experiments as claim tables (EXPERIMENTS.md): each
    experiment measures its rows and declares the checks its claim
    makes of them. [rtas claims] runs the full scale; the test suite
    runs the quick one. *)

(** [Quick] shrinks the costly grids: E1's k to 512, E6 to n = 32, E8's
    t to 5 and E9 to n = 256. It adds n = 128 to E7's recurrence rows.
    Every check is the same as at [Full]. *)
type scale = Quick | Full

type experiment = {
  id : string;  (** ["e1"] … ["e20"]. *)
  title : string;
  run : domains:int -> scale -> Table.t list;
      (** Bit-identical for every [domains]. *)
}

val all : experiment list
val find : string -> experiment option

val report :
  domains:int -> scale -> Format.formatter -> experiment -> string list
(** Runs the experiment, prints its banner and tables with one verdict
    line per check, and returns the failed checks' descriptions. *)
