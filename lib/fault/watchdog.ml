type reason = Timed_out of float | Raised of string

type failure = {
  attempts : int;
  seeds_tried : int64 list;
  last_reason : reason;
}

type 'a success = {
  value : 'a;
  seed_used : int64;
  attempt : int;
  elapsed : float;
}

let pp_reason ppf = function
  | Timed_out s -> Fmt.pf ppf "timed out after %.2fs" s
  | Raised msg -> Fmt.pf ppf "raised %s" msg

(* Deterministic seed rotation: attempt 0 uses the caller's seed, later
   attempts draw from a splitmix stream derived from it, so a failing
   seed is always reported and the retry sequence is reproducible. *)
let rotate base =
  let stream = Sim.Rng.create (Int64.logxor base 0xDA7AD06_5EEDL) in
  fun attempt -> if attempt = 0 then base else Sim.Rng.next stream

type domain_progress = {
  dp_index : int;
  dp_label : string;
  dp_finished : bool;
  dp_progress : int;
}

type stuck = {
  stuck_elapsed : float;
  stuck_progress : domain_progress list;
}

let pp_stuck ppf s =
  let finished, running =
    List.partition (fun d -> d.dp_finished) s.stuck_progress
  in
  Fmt.pf ppf "stuck after %.2fs (%d/%d domains finished):" s.stuck_elapsed
    (List.length finished)
    (List.length s.stuck_progress);
  List.iter
    (fun d ->
      Fmt.pf ppf "@ [%d] %s RUNNING (progress %d)" d.dp_index d.dp_label
        d.dp_progress)
    running

let race ?(poll_s = 0.002) ?(timeout = 10.0) ?(progress = fun _ -> 0)
    ?(label = fun i -> Printf.sprintf "domain %d" i) ~n f =
  if n < 1 then invalid_arg "Watchdog.race: n must be >= 1";
  (* Each slot is written by its own domain and published by the SC
     write of its done-flag; the monitor reads the flag before the
     slot, so no lock is needed. *)
  let results = Array.make n None in
  let flags = Array.init n (fun _ -> Atomic.make false) in
  let domains =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let r = match f i with v -> Ok v | exception e -> Error e in
            results.(i) <- Some r;
            Atomic.set flags.(i) true))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    if Array.for_all Atomic.get flags then true
    else if Unix.gettimeofday () -. t0 >= timeout then false
    else begin
      Unix.sleepf poll_s;
      wait ()
    end
  in
  if wait () then begin
    Array.iter Domain.join domains;
    let values =
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error e) -> raise e
          | None -> assert false)
        results
    in
    Ok values
  end
  else
    Error
      {
        stuck_elapsed = Unix.gettimeofday () -. t0;
        stuck_progress =
          List.init n (fun i ->
              {
                dp_index = i;
                dp_label = label i;
                dp_finished = Atomic.get flags.(i);
                dp_progress = progress i;
              });
      }

let run ?(timeout = 5.0) ?(retries = 2) ~seed f =
  let next_seed = rotate seed in
  let rec attempt k seeds_tried =
    let s = next_seed k in
    let seeds_tried = s :: seeds_tried in
    let t0 = Unix.gettimeofday () in
    let outcome =
      match f ~seed:s with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let failed reason =
      if k < retries then attempt (k + 1) seeds_tried
      else
        Error
          {
            attempts = k + 1;
            seeds_tried = List.rev seeds_tried;
            last_reason = reason;
          }
    in
    match outcome with
    | Ok value ->
        if elapsed > timeout then failed (Timed_out elapsed)
        else Ok { value; seed_used = s; attempt = k; elapsed }
    | Error msg -> failed (Raised msg)
  in
  attempt 0 []
