let round_robin () =
  let counter = ref 0 in
  let decide (view : Sched.view) =
    let r = view.runnable in
    match Running.length r with
    | 0 -> Sched.Halt
    | m ->
        (* Find the next runnable pid at or after the cursor, cyclically. *)
        let rec find i =
          if i >= m then Running.get r 0
          else
            let pid = Running.get r i in
            if pid >= !counter then pid else find (i + 1)
        in
        let pid = find 0 in
        counter := pid + 1;
        Sched.Schedule pid
  in
  { Sched.adv_name = "round-robin"; adv_klass = Sched.Oblivious; decide }

let random_oblivious ~seed =
  let rng = Rng.create seed in
  let decide (view : Sched.view) =
    match Running.length view.runnable with
    | 0 -> Sched.Halt
    | m -> Sched.Schedule (Running.get view.runnable (Rng.int rng m))
  in
  { Sched.adv_name = "random-oblivious"; adv_klass = Sched.Oblivious; decide }

let fixed_schedule ?(then_halt = true) schedule =
  let pos = ref 0 in
  let fallback = round_robin () in
  let decide (view : Sched.view) =
    if Running.length view.runnable = 0 then Sched.Halt
    else begin
      (* Skip schedule slots of processes that are no longer running. *)
      while
        !pos < Array.length schedule
        && not (Running.mem view.runnable schedule.(!pos))
      do
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
