let round_robin () =
  let counter = ref 0 in
  let decide (view : Sched.view) =
    match Array.length view.runnable with
    | 0 -> Sched.Halt
    | m ->
        (* Find the next runnable pid at or after the cursor, cyclically. *)
        let rec find i =
          if i >= m then view.runnable.(0) else
          if view.runnable.(i) >= !counter then view.runnable.(i)
          else find (i + 1)
        in
        let pid = find 0 in
        counter := pid + 1;
        Sched.Schedule pid
  in
  { Sched.adv_name = "round-robin"; adv_klass = Sched.Oblivious; decide }

let random_oblivious ~seed =
  let rng = Rng.create seed in
  let decide (view : Sched.view) =
    match Array.length view.runnable with
    | 0 -> Sched.Halt
    | m -> Sched.Schedule view.runnable.(Rng.int rng m)
  in
  { Sched.adv_name = "random-oblivious"; adv_klass = Sched.Oblivious; decide }

let fixed_schedule ?(then_halt = true) schedule =
  let pos = ref 0 in
  let fallback = round_robin () in
  let decide (view : Sched.view) =
    if Array.length view.runnable = 0 then Sched.Halt
    else begin
      let running pid =
        Array.exists (fun p -> p = pid) view.runnable
      in
      (* Skip schedule slots of processes that are no longer running. *)
      while !pos < Array.length schedule && not (running schedule.(!pos)) do
        incr pos
      done;
      if !pos < Array.length schedule then begin
        let pid = schedule.(!pos) in
        incr pos;
        Sched.Schedule pid
      end
      else if then_halt then Sched.Halt
      else fallback.Sched.decide view
    end
  in
  { Sched.adv_name = "fixed-schedule"; adv_klass = Sched.Oblivious; decide }

let adaptive name decide =
  { Sched.adv_name = name; adv_klass = Sched.Adaptive; decide }

let location_oblivious name decide =
  { Sched.adv_name = name; adv_klass = Sched.Location_oblivious; decide }

let rw_oblivious name decide =
  { Sched.adv_name = name; adv_klass = Sched.Rw_oblivious; decide }
