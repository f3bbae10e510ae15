type _ Effect.t += Step : unit Effect.t

module Stepped (M : Backend.Mem.S) = struct
  include M

  let read ctx r =
    Effect.perform Step;
    M.read ctx r

  let write ctx r v =
    Effect.perform Step;
    M.write ctx r v
end

type state =
  | Running
  | Finished of bool

type t = {
  mutable st : state;
  mutable resume : (unit -> unit) option;
}

let spawn (body : unit -> bool) =
  let t = { st = Running; resume = None } in
  let open Effect.Deep in
  let retc b =
    t.st <- Finished b;
    t.resume <- None
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Step -> Some (fun k -> t.resume <- Some (fun () -> continue k ()))
    | _ -> None
  in
  match_with body () { retc; exnc = raise; effc };
  t

let state t = t.st

let step t =
  match (t.st, t.resume) with
  | Running, Some resume ->
      t.resume <- None;
      resume ()
  | Running, None -> ()
  | Finished _, _ -> ()

let abandon t =
  t.resume <- None;
  t.st <- Finished false
