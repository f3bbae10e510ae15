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
      reg : int;  (** Register allocation id. *)
      reg_name : string;
      kind : kind;
      read_value : int option;  (** [Some v] for reads. *)
    }
  | Flip of { time : int; pid : int; bound : int; outcome : int }
      (** [bound < 0] encodes the geometric draw with parameter [-bound]. *)
  | Finish of { time : int; pid : int; result : int }
  | Crash of { time : int; pid : int }

val pp_kind : kind Fmt.t

val pp_event : event Fmt.t

val event_to_string : event -> string
(** [event_to_string e] is {!pp_event} rendered to a string — handy for
    comparing traces in tests ([Alcotest.(check (list string))]). *)
