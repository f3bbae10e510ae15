(** Shared-memory operations and trace events. *)

type kind =
  | Read
  | Write of int  (** Value to be written. *)

type pending = {
  reg : Register.t;
  kind : kind;
}
(** An operation a process is poised to perform. In the paper's
    terminology, a process whose pending operation is a write {e covers}
    that register. *)

type event =
  | Step of {
      time : int;
      pid : int;
      reg : int;
      reg_name : string;
      kind : kind;
      read_value : int option;  (** [Some v] for reads. *)
    }
  | Flip of { time : int; pid : int; bound : int; outcome : int }
  | Finish of { time : int; pid : int; result : int }
  | Crash of { time : int; pid : int }

let pp_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write v -> Fmt.pf ppf "write %d" v

let pp_event ppf = function
  | Step { time; pid; reg_name; kind; read_value; _ } -> (
      match read_value with
      | Some v -> Fmt.pf ppf "[%d] p%d %a %s -> %d" time pid pp_kind kind reg_name v
      | None -> Fmt.pf ppf "[%d] p%d %a %s" time pid pp_kind kind reg_name)
  | Flip { time; pid; bound; outcome } ->
      Fmt.pf ppf "[%d] p%d flip %d -> %d" time pid bound outcome
  | Finish { time; pid; result } -> Fmt.pf ppf "[%d] p%d finish %d" time pid result
  | Crash { time; pid } -> Fmt.pf ppf "[%d] p%d crash" time pid

let event_to_string e = Fmt.str "%a" pp_event e
