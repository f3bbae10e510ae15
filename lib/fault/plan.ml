type action =
  | Crash_after of { pid : int; steps : int }
  | Crash_at of { pid : int; time : int }
  | Storm of { prob : float; max_crashes : int option }
  | Stall of { pid : int; from_time : int; until_time : int }
  | Halt_at of { time : int }

type t = action list

(* Written so that NaN fails too. *)
let is_prob p = p >= 0.0 && p <= 1.0

let crash_after ~pid ~steps = Crash_after { pid; steps }
let crash_at ~pid ~time = Crash_at { pid; time }

let storm ?max_crashes prob =
  if not (is_prob prob) then
    invalid_arg
      (Printf.sprintf "Plan.storm: probability must be in [0, 1] (got %g)" prob);
  Storm { prob; max_crashes }

let stall ~pid ~from_time ~until_time = Stall { pid; from_time; until_time }
let halt_at time = Halt_at { time }

let pp_action ppf = function
  | Crash_after { pid; steps } -> Fmt.pf ppf "crash:%d@%d" pid steps
  | Crash_at { pid; time } -> Fmt.pf ppf "crashat:%d@%d" pid time
  | Storm { prob; max_crashes = None } -> Fmt.pf ppf "storm:%g" prob
  | Storm { prob; max_crashes = Some m } -> Fmt.pf ppf "storm:%g@%d" prob m
  | Stall { pid; from_time; until_time } ->
      Fmt.pf ppf "stall:%d@%d-%d" pid from_time until_time
  | Halt_at { time } -> Fmt.pf ppf "halt@%d" time

let pp = Fmt.(list ~sep:comma pp_action)
let to_string t = Fmt.str "%a" pp t

let action_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "cannot parse fault action %S (pids, steps, times and budgets are \
          integers >= 0, a storm probability is in [0, 1])"
         s)
  in
  let valid ok = function Some v when ok v -> Some v | _ -> None in
  let int_opt x = valid (fun v -> v >= 0) (int_of_string_opt (String.trim x)) in
  let float_opt x = valid is_prob (float_of_string_opt (String.trim x)) in
  match String.index_opt s ':' with
  | None -> (
      match String.split_on_char '@' s with
      | [ "halt"; t ] -> (
          match int_opt t with
          | Some time -> Ok (Halt_at { time })
          | None -> fail ())
      | _ -> fail ())
  | Some i -> (
      let head = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match (head, String.split_on_char '@' rest) with
      | "crash", [ pid; steps ] -> (
          match (int_opt pid, int_opt steps) with
          | Some pid, Some steps -> Ok (Crash_after { pid; steps })
          | _ -> fail ())
      | "crashat", [ pid; time ] -> (
          match (int_opt pid, int_opt time) with
          | Some pid, Some time -> Ok (Crash_at { pid; time })
          | _ -> fail ())
      | "storm", [ prob ] -> (
          match float_opt prob with
          | Some prob -> Ok (Storm { prob; max_crashes = None })
          | None -> fail ())
      | "storm", [ prob; m ] -> (
          match (float_opt prob, int_opt m) with
          | Some prob, Some m -> Ok (Storm { prob; max_crashes = Some m })
          | _ -> fail ())
      | "stall", [ pid; window ] -> (
          match (int_opt pid, String.split_on_char '-' window) with
          | Some pid, [ f; u ] -> (
              match (int_opt f, int_opt u) with
              | Some from_time, Some until_time ->
                  Ok (Stall { pid; from_time; until_time })
              | _ -> fail ())
          | _ -> fail ())
      | _ -> fail ())

let of_string s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  List.fold_left
    (fun acc part ->
      match (acc, action_of_string part) with
      | Ok actions, Ok a -> Ok (a :: actions)
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e)
    (Ok []) parts
  |> Result.map List.rev

(* A storm with its crash budget. [left] is [unset] until the storm's
   first draw, when the n-1 default can observe the number of runnable
   processes; a budget is never [unset] once computed, because a
   negative explicit budget stays negative and [max 0 (m - 1)] cannot
   be. *)
type storm = { prob : float; max_crashes : int option; mutable left : int }

let unset = min_int

(* The decision loops below are top-level functions over the plan's
   split parts, so walking them allocates no closure per decision. *)

let rec halted now = function
  | [] -> false
  | time :: rest -> now >= time || halted now rest

(* The pid of the first due one-shot crash, in plan order; [-1] when
   none is due. *)
let rec due (view : Sim.Sched.view) = function
  | [] -> -1
  | Crash_after { pid; steps } :: _
    when Sim.Running.mem view.runnable pid
         && (view.pending_of pid).view_steps >= steps ->
      pid
  | Crash_at { pid; time } :: _
    when Sim.Running.mem view.runnable pid && view.view_time >= time ->
      pid
  | _ :: rest -> due view rest

let targets pid = function
  | Crash_after a -> a.pid = pid
  | Crash_at a -> a.pid = pid
  | _ -> false

(* Storms from [i] on draw in plan order: a uniformly chosen runnable
   victim with the storm's probability, never the last runnable
   process, and never beyond the storm's budget. [-1] when none
   strikes. *)
let rec strike rng storms runnable i =
  if i = Array.length storms then -1
  else begin
    let s = storms.(i) and m = Sim.Running.length runnable in
    if s.left = unset then
      s.left <-
        (match s.max_crashes with Some c -> c | None -> max 0 (m - 1));
    if s.left > 0 && m > 1 && Sim.Rng.below rng s.prob then begin
      s.left <- s.left - 1;
      Sim.Running.get runnable (Sim.Rng.int rng m)
    end
    else strike rng storms runnable (i + 1)
  end

let rec stalled now pid = function
  | [] -> false
  | (p, from_t, until_t) :: rest ->
      (p = pid && now >= from_t && now < until_t) || stalled now pid rest

let rec hides now runnable = function
  | [] -> false
  | (pid, from_t, until_t) :: rest ->
      (now >= from_t && now < until_t && Sim.Running.mem runnable pid)
      || hides now runnable rest

(* The compiled wrapper splits the plan once: halt times, one-shot
   crashes still pending (in plan order), storms with their budgets,
   and stall windows. Stalled processes are filtered out of the base
   adversary's view only while a window hides a runnable one, and never
   down to nothing (stalling is a delay, never a deadlock). *)
let apply ?(seed = 0xFA17L) (plan : t) (adv : Sim.Sched.adversary) =
  let rng = Sim.Rng.create seed in
  let halts =
    List.filter_map (function Halt_at { time } -> Some time | _ -> None) plan
  in
  let oneshots =
    ref
      (List.filter
         (function Crash_after _ | Crash_at _ -> true | _ -> false)
         plan)
  in
  let storms =
    Array.of_list
      (List.filter_map
         (function
           | Storm { prob; max_crashes } ->
               Some { prob; max_crashes; left = unset }
           | _ -> None)
         plan)
  in
  let stalls =
    List.filter_map
      (function
        | Stall { pid; from_time; until_time } ->
            Some (pid, from_time, until_time)
        | _ -> None)
      plan
  in
  let decide (view : Sim.Sched.view) =
    let now = view.view_time in
    if halted now halts then Sim.Sched.Halt
    else
      let pid = due view !oneshots in
      if pid >= 0 then begin
        (* A crashed pid's other one-shots can never fire. *)
        oneshots := List.filter (fun a -> not (targets pid a)) !oneshots;
        Sim.Sched.Crash_proc pid
      end
      else
        let victim = strike rng storms view.runnable 0 in
        if victim >= 0 then Sim.Sched.Crash_proc victim
        else if not (hides now view.runnable stalls) then adv.decide view
        else
          let filtered =
            Sim.Running.filter
              (fun pid -> not (stalled now pid stalls))
              view.runnable
          in
          if Sim.Running.length filtered = 0 then adv.decide view
          else adv.decide { view with runnable = filtered }
  in
  {
    Sim.Sched.adv_name = adv.adv_name ^ "+fault";
    adv_klass = adv.adv_klass;
    decide;
  }
