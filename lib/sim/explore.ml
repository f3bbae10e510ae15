(* Huge-arity choice points (e.g. probability draws over 2^20 values)
   are branched over a bounded set of evenly spaced representative
   outcomes instead of exhaustively. *)
let max_branch = 8

(* Execute one run following the choice prefix [path]; uncontrolled
   choices fall back to round-robin scheduling and pseudo-random flips
   (seeded by [tail_seed]). Returns the final scheduler, the outcome of
   the run ([Error] when the execution itself failed, e.g. blew the
   step budget because a crash deadlocked a survivor), and, when a
   choice point sits at index [length path] within [depth], its
   (capped) arity — the children of this prefix in the DFS. The branch
   arity is reported even for failed runs: the frontier choice point is
   reached before the execution diverges, and sibling resolutions may
   behave differently.

   When [max_crashes > 0] a scheduling choice point with [m] runnable
   processes gets extra outcomes: choice [c < min m max_branch]
   schedules process [runnable.(c mod m)] as before, and choice
   [c >= min m max_branch] crashes process
   [runnable.((c - min m max_branch) mod m)], consuming one unit of the
   crash budget. With [max_crashes = 0] the arity and the numbering of
   every choice point are exactly the crash-free ones, so existing
   paths replay unchanged. *)
let run_path ~tail_seed ~depth ~max_crashes ~max_total_steps ~programs
    (path : int array) =
  let cursor = ref 0 in
  let branch = ref None in
  let next_choice arity =
    let i = !cursor in
    incr cursor;
    if i < Array.length path then Some path.(i)
    else begin
      if i = Array.length path && i < depth && !branch = None then
        branch := Some (min arity max_branch);
      None
    end
  in
  let oracle ~pid:_ ~bound =
    let arity = if bound < 0 then -bound else bound in
    match next_choice arity with
    | Some c ->
        let outcome =
          if arity <= max_branch then c else c * (arity / max_branch)
        in
        Some (if bound < 0 then outcome + 1 else outcome)
    | None -> None
  in
  let rr = ref 0 in
  let crashes_left = ref max_crashes in
  let decide (view : Sched.view) =
    let r = view.runnable in
    match Running.length r with
    | 0 -> Sched.Halt
    | m -> (
        let sched_arity = min m max_branch in
        let crash_arity = if !crashes_left > 0 then min m max_branch else 0 in
        match next_choice (sched_arity + crash_arity) with
        | Some c when c < sched_arity || crash_arity = 0 ->
            (* The [crash_arity = 0] guard keeps stale paths (shrinking
               can realign a crash choice onto a budget-exhausted point)
               interpreted as schedules rather than illegal crashes. *)
            Sched.Schedule (Running.get r (c mod m))
        | Some c ->
            decr crashes_left;
            Sched.Crash_proc (Running.get r ((c - sched_arity) mod m))
        | None ->
            incr rr;
            Sched.Schedule (Running.get r (!rr mod m)))
  in
  let sched = Sched.create ~seed:tail_seed ~flip_oracle:oracle (programs ()) in
  let outcome =
    match
      Sched.run ~max_total_steps sched
        { Sched.adv_name = "explorer"; adv_klass = Sched.Adaptive; decide }
    with
    | () -> Ok ()
    | exception e -> Error e
  in
  (sched, outcome, !branch)

(* The tail seed (randomness beyond the controlled prefix) is a pure
   function of the path, not of DFS visit order: subtrees can then be
   enumerated in any order — or on parallel domains — and every path
   still executes bit-identically. *)
let tail_seed_of seed path =
  Array.fold_left (fun s c -> Rng.derive s ~stream:c) seed path

(* DFS over choice prefixes, restricted to extensions of [prefix] (the
   prefix execution itself included). [on_execution] sees every
   completed run (with the run's own outcome) and may raise to abort the
   search. Returns the number of executions run and whether the
   [max_paths] budget cut the enumeration short (unvisited prefixes
   remained when it was exhausted). *)
let dfs ~max_paths ~seed ~depth ~max_crashes ~max_total_steps ~prefix ~programs
    ~on_execution =
  let count = ref 0 in
  let truncated = ref false in
  let stack = ref [ prefix ] in
  let rec loop () =
    match !stack with
    | [] -> ()
    | path :: rest ->
        if !count >= max_paths then truncated := true
        else begin
          stack := rest;
          let sched, outcome, branch =
            run_path ~tail_seed:(tail_seed_of seed path) ~depth ~max_crashes
              ~max_total_steps ~programs path
          in
          incr count;
          on_execution ~path ~sched ~outcome;
          (match branch with
          | Some arity ->
              for c = arity - 1 downto 0 do
                stack := Array.append path [| c |] :: !stack
              done
          | None -> ());
          loop ()
        end
  in
  loop ();
  (!count, !truncated)

type stat = { executions : int; truncated : bool }

let explore_stat ?(max_paths = 2_000_000) ?(seed = 0xE8920AL) ?(max_crashes = 0)
    ?(max_total_steps = 10_000_000) ?(prefix = [||]) ~depth ~programs ~check ()
    =
  let executions, truncated =
    dfs ~max_paths ~seed ~depth ~max_crashes ~max_total_steps ~prefix ~programs
      ~on_execution:(fun ~path:_ ~sched ~outcome ->
        match outcome with Ok () -> check sched | Error e -> raise e)
  in
  { executions; truncated }

let explore ?max_paths ?seed ?max_crashes ?max_total_steps ?prefix ~depth
    ~programs ~check () =
  let s =
    explore_stat ?max_paths ?seed ?max_crashes ?max_total_steps ?prefix ~depth
      ~programs ~check ()
  in
  s.executions

let probe ?(seed = 0xE8920AL) ?(max_crashes = 0)
    ?(max_total_steps = 10_000_000) ?(prefix = [||]) ~depth ~programs ~check ()
    =
  let sched, outcome, branch =
    run_path ~tail_seed:(tail_seed_of seed prefix) ~depth ~max_crashes
      ~max_total_steps ~programs prefix
  in
  (match outcome with Ok () -> check sched | Error e -> raise e);
  branch

type violation = {
  path : int array;
  message : string;
  executions : int;
}

exception Found of int array * string

let find_violation ?(max_paths = 2_000_000) ?(seed = 0xE8920AL)
    ?(max_crashes = 0) ?(max_total_steps = 10_000_000) ~depth ~programs ~check
    () =
  let executions = ref 0 in
  let attempt path =
    match
      let sched, outcome, _ =
        run_path ~tail_seed:(tail_seed_of seed path) ~depth ~max_crashes
          ~max_total_steps ~programs path
      in
      (match outcome with Ok () -> () | Error e -> raise e);
      check sched
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  match
    dfs ~max_paths ~seed ~depth ~max_crashes ~max_total_steps ~prefix:[||]
      ~programs
      ~on_execution:(fun ~path ~sched ~outcome ->
        incr executions;
        match
          (match outcome with Ok () -> () | Error e -> raise e);
          check sched
        with
        | () -> ()
        | exception e -> raise (Found (path, Printexc.to_string e)))
  with
  | _count -> None
  | exception Found (path, message) ->
      (* Greedy shrink: drop one choice at a time (from the end first)
         while the violation still reproduces deterministically. *)
      let shrunk = ref path and msg = ref message in
      let progress = ref true in
      while !progress do
        progress := false;
        let len = Array.length !shrunk in
        let i = ref (len - 1) in
        while not !progress && !i >= 0 do
          let candidate =
            Array.append (Array.sub !shrunk 0 !i)
              (Array.sub !shrunk (!i + 1) (len - !i - 1))
          in
          (match attempt candidate with
          | Some m ->
              shrunk := candidate;
              msg := m;
              progress := true
          | None -> ());
          decr i
        done
      done;
      Some { path = !shrunk; message = !msg; executions = !executions }

let replay ?(seed = 0xE8920AL) ?(max_crashes = 0)
    ?(max_total_steps = 10_000_000) ~path ~programs () =
  let sched, outcome, _ =
    run_path ~tail_seed:(tail_seed_of seed path) ~depth:0 ~max_crashes
      ~max_total_steps ~programs path
  in
  (match outcome with Ok () -> () | Error e -> raise e);
  sched
