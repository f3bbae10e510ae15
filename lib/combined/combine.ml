module Make (A : Leaderelect.Le.S) (M : Backend.Mem.S) = struct
  module S = Coroutine.Stepped (M)
  module Rr = Ratrace.Ratrace_lean.Make (S)
  module Ae = A (S)
  module Duel = Primitives.Le2.Make (M)

  type t = {
    rr : Rr.t;
    a : Ae.t;
    top : Duel.t;
  }

  let create ?(name = "combined") mem ~n =
    {
      rr = Rr.create ~name:(name ^ ".rr") mem ~n;
      a = Ae.create mem ~n;
      top = Duel.create ~name:(name ^ ".top") mem;
    }

  let elect t ctx =
    let won_splitter = ref false in
    let rr_sub =
      Coroutine.spawn (fun () ->
          Rr.elect_notify
            ~notify_splitter_win:(fun () -> won_splitter := true)
            t.rr ctx)
    in
    let a_sub = Coroutine.spawn (fun () -> Ae.elect t.a ctx) in
    let win_top port = Duel.elect t.top ctx ~port in
    (* Rule 3 exception: [A] lost but we hold a splitter — finish RatRace
       alone. *)
    let rec rr_alone () =
      match Coroutine.state rr_sub with
      | Coroutine.Finished true -> win_top 0
      | Coroutine.Finished false -> false
      | Coroutine.Running ->
          Coroutine.step rr_sub;
          rr_alone ()
    in
    let rec loop () =
      (* Odd steps belong to RatRace. *)
      Coroutine.step rr_sub;
      match Coroutine.state rr_sub with
      | Coroutine.Finished true ->
          Coroutine.abandon a_sub;
          win_top 0
      | Coroutine.Finished false ->
          (* Rule 2. *)
          Coroutine.abandon a_sub;
          false
      | Coroutine.Running -> (
          Coroutine.step a_sub;
          match Coroutine.state a_sub with
          | Coroutine.Finished true ->
              (* Rule 1. *)
              Coroutine.abandon rr_sub;
              win_top 1
          | Coroutine.Finished false ->
              if !won_splitter then rr_alone ()
              else begin
                (* Rule 3. *)
                Coroutine.abandon rr_sub;
                false
              end
          | Coroutine.Running -> loop ())
    in
    loop ()
end
