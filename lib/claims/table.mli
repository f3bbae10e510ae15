(** A claim table: typed rows plus the checks they must pass.

    Rows are addressed by their label (the first column) and columns by
    their header, so a check names the cells it reads instead of
    computing a verdict beside the numbers. Rendering sizes every
    column from its cells and prints one [PASS]/[FAIL] line per
    check. *)

type cell =
  | Int of int
  | Float of int * float  (** Decimals shown, value. *)
  | Missing  (** Not measured; printed as [-], skipped by checks. *)

(** A set of cells a check reads. *)
type series =
  | Col of string  (** A column, keyed by row label. *)
  | Row of string  (** A row, keyed by column header. *)
  | Cell of string * string  (** One cell: row label, column header. *)
  | Const of float

(** Growth models of a fit [a + b·g(x)], slowest first. There is no
    constant model: [a + b·1] is nested in every other fit, so it could
    never fit better than the next model. *)
type model = Log_star | Log_log | Log | Linear

type check =
  | Bound of series * series
      (** Each cell of the first is [<=] its counterpart in the second.
          Two columns (or two rows) pair up cell by cell; a [Cell] or
          [Const] pairs with every cell of the other side. Pairs with a
          [Missing] cell are skipped. *)
  | Floor of series * series  (** Like [Bound], with [>=]. *)
  | Order of string * string list
      (** At this column the listed rows rank in ascending order. *)
  | Growth of series * model
      (** Over a [Col] (x = row labels) or a [Row] (x = column headers),
          the least-squares fit of [a + b·g(x)] with the claimed [g]
          leaves no larger residual than with the next faster model. *)

type t = {
  caption : string;  (** Printed above the header; may be empty. *)
  columns : string list;  (** Headers, the label column first. *)
  rows : (string * cell list) list;
      (** Label, then one cell per remaining column. *)
  checks : check list;
}

val evaluate : t -> check -> (unit, string) result
(** [Error reason] when the check fails. A check that compares no cells,
    or names a row or column the table lacks, fails. *)

val failures : t -> string list
(** The name of every failed check, as on its verdict line (e.g.
    ["bound: measured <= paper bound"]). *)

val pp : t Fmt.t
(** The caption, header, rows and one verdict line per check. *)
