(* The per-phase attribution collector: a Probe sink that turns the
   simulator's event stream into per-phase step/RMR accounting.

   Attribution model: every process carries a stack of open phase
   frames (pushed by [on_span_enter], popped by [on_span_exit]); each
   step is attributed to the {e innermost} open phase of the stepping
   process — so a splitter access inside [chain_forward] but outside the
   nested [ge_round] counts for the chain, not the round. Steps outside
   every span land in the pseudo-phase ["(unattributed)"]. On crash or
   finish the stack is drained: still-open spans are counted as
   [unclosed] (their steps were already attributed live) rather than
   producing a distorted per-span sample.

   A collector is single-domain state; Engine workers each own one and
   the caller merges the resulting {!snapshot}s (associative, any
   grouping — tested in test_obs.ml). *)

let unattributed = "(unattributed)"

type phase_acc = {
  pa_name : string;
  mutable pa_calls : int;  (* spans closed cleanly *)
  mutable pa_unclosed : int;  (* spans open at crash/finish *)
  mutable pa_steps : int;
  mutable pa_rmrs : int;
  mutable pa_writes : int;
  mutable pa_invalidations : int;
  mutable pa_step_samples : float list;  (* per closed span *)
  mutable pa_rmr_samples : float list;
}

type frame = {
  f_acc : phase_acc;
  mutable f_steps : int;  (* own steps while innermost *)
  mutable f_rmrs : int;
}

type t = {
  phases : (string, phase_acc) Hashtbl.t;
  stacks : (int, frame list ref) Hashtbl.t;  (* bottom = base frame *)
  mutable c_steps : int;
  mutable c_rmrs : int;
  mutable c_flips : int;
  mutable c_crashes : int;
  mutable c_finishes : int;
  mutable c_span_errors : int;  (* exits with no matching enter *)
}

let create () =
  {
    phases = Hashtbl.create 16;
    stacks = Hashtbl.create 16;
    c_steps = 0;
    c_rmrs = 0;
    c_flips = 0;
    c_crashes = 0;
    c_finishes = 0;
    c_span_errors = 0;
  }

let phase_acc t name =
  match Hashtbl.find_opt t.phases name with
  | Some a -> a
  | None ->
      let a =
        {
          pa_name = name;
          pa_calls = 0;
          pa_unclosed = 0;
          pa_steps = 0;
          pa_rmrs = 0;
          pa_writes = 0;
          pa_invalidations = 0;
          pa_step_samples = [];
          pa_rmr_samples = [];
        }
      in
      Hashtbl.add t.phases name a;
      a

let stack t pid =
  match Hashtbl.find_opt t.stacks pid with
  | Some s -> s
  | None ->
      let base = { f_acc = phase_acc t unattributed; f_steps = 0; f_rmrs = 0 } in
      let s = ref [ base ] in
      Hashtbl.add t.stacks pid s;
      s

let on_step t ~time:_ ~pid ~reg:_ ~reg_name:_ ~write ~value:_ ~rmr ~invalidated =
  t.c_steps <- t.c_steps + 1;
  if rmr then t.c_rmrs <- t.c_rmrs + 1;
  let fr = match !(stack t pid) with fr :: _ -> fr | [] -> assert false in
  let a = fr.f_acc in
  fr.f_steps <- fr.f_steps + 1;
  a.pa_steps <- a.pa_steps + 1;
  if rmr then begin
    fr.f_rmrs <- fr.f_rmrs + 1;
    a.pa_rmrs <- a.pa_rmrs + 1
  end;
  if write then begin
    a.pa_writes <- a.pa_writes + 1;
    a.pa_invalidations <- a.pa_invalidations + invalidated
  end

let on_span_enter t ~pid ~phase =
  let s = stack t pid in
  s := { f_acc = phase_acc t phase; f_steps = 0; f_rmrs = 0 } :: !s

let on_span_exit t ~pid ~phase:_ =
  let s = stack t pid in
  match !s with
  | fr :: (_ :: _ as rest) ->
      s := rest;
      let a = fr.f_acc in
      a.pa_calls <- a.pa_calls + 1;
      a.pa_step_samples <- float_of_int fr.f_steps :: a.pa_step_samples;
      a.pa_rmr_samples <- float_of_int fr.f_rmrs :: a.pa_rmr_samples
  | _ ->
      (* Exit with no matching enter: only the base frame is left. *)
      t.c_span_errors <- t.c_span_errors + 1

(* Crash or finish: close every span still open without recording a
   per-span sample (the span did not run to completion). *)
let drain t ~pid =
  let s = stack t pid in
  let rec go = function
    | [ base ] -> s := [ base ]
    | fr :: rest ->
        fr.f_acc.pa_unclosed <- fr.f_acc.pa_unclosed + 1;
        go rest
    | [] -> assert false
  in
  go !s

let on_crash t ~time:_ ~pid =
  t.c_crashes <- t.c_crashes + 1;
  drain t ~pid

let on_finish t ~time:_ ~pid ~result:_ =
  t.c_finishes <- t.c_finishes + 1;
  drain t ~pid

let on_flip t ~time:_ ~pid:_ ~bound:_ ~outcome:_ = t.c_flips <- t.c_flips + 1

let sink t =
  {
    Probe.on_step =
      (fun ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated ->
        on_step t ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated);
    on_flip = (fun ~time ~pid ~bound ~outcome -> on_flip t ~time ~pid ~bound ~outcome);
    on_crash = (fun ~time ~pid -> on_crash t ~time ~pid);
    on_finish = (fun ~time ~pid ~result -> on_finish t ~time ~pid ~result);
    on_span_enter = (fun ~pid ~phase -> on_span_enter t ~pid ~phase);
    on_span_exit = (fun ~pid ~phase -> on_span_exit t ~pid ~phase);
  }

(* {1 Snapshots} *)

type phase_snapshot = {
  ps_phase : string;
  ps_calls : int;
  ps_unclosed : int;
  ps_steps : int;
  ps_rmrs : int;
  ps_writes : int;
  ps_invalidations : int;
  ps_step_samples : float array;  (* sorted ascending *)
  ps_rmr_samples : float array;  (* sorted ascending *)
}

type snapshot = {
  sn_phases : phase_snapshot list;  (* sorted by phase name *)
  sn_steps : int;
  sn_rmrs : int;
  sn_flips : int;
  sn_crashes : int;
  sn_finishes : int;
  sn_span_errors : int;
}

let sorted_samples xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let snapshot t =
  let phases =
    Hashtbl.fold
      (fun _ a acc ->
        {
          ps_phase = a.pa_name;
          ps_calls = a.pa_calls;
          ps_unclosed = a.pa_unclosed;
          ps_steps = a.pa_steps;
          ps_rmrs = a.pa_rmrs;
          ps_writes = a.pa_writes;
          ps_invalidations = a.pa_invalidations;
          ps_step_samples = sorted_samples a.pa_step_samples;
          ps_rmr_samples = sorted_samples a.pa_rmr_samples;
        }
        :: acc)
      t.phases []
    |> List.sort (fun a b -> String.compare a.ps_phase b.ps_phase)
  in
  {
    sn_phases = phases;
    sn_steps = t.c_steps;
    sn_rmrs = t.c_rmrs;
    sn_flips = t.c_flips;
    sn_crashes = t.c_crashes;
    sn_finishes = t.c_finishes;
    sn_span_errors = t.c_span_errors;
  }

let empty_snapshot =
  {
    sn_phases = [];
    sn_steps = 0;
    sn_rmrs = 0;
    sn_flips = 0;
    sn_crashes = 0;
    sn_finishes = 0;
    sn_span_errors = 0;
  }

let merge_sorted a b =
  let out = Array.append a b in
  Array.sort Float.compare out;
  out

let merge_phase a b =
  {
    ps_phase = a.ps_phase;
    ps_calls = a.ps_calls + b.ps_calls;
    ps_unclosed = a.ps_unclosed + b.ps_unclosed;
    ps_steps = a.ps_steps + b.ps_steps;
    ps_rmrs = a.ps_rmrs + b.ps_rmrs;
    ps_writes = a.ps_writes + b.ps_writes;
    ps_invalidations = a.ps_invalidations + b.ps_invalidations;
    ps_step_samples = merge_sorted a.ps_step_samples b.ps_step_samples;
    ps_rmr_samples = merge_sorted a.ps_rmr_samples b.ps_rmr_samples;
  }

let rec merge_phases a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | pa :: ta, pb :: tb ->
      let c = String.compare pa.ps_phase pb.ps_phase in
      if c < 0 then pa :: merge_phases ta b
      else if c > 0 then pb :: merge_phases a tb
      else merge_phase pa pb :: merge_phases ta tb

let merge a b =
  {
    sn_phases = merge_phases a.sn_phases b.sn_phases;
    sn_steps = a.sn_steps + b.sn_steps;
    sn_rmrs = a.sn_rmrs + b.sn_rmrs;
    sn_flips = a.sn_flips + b.sn_flips;
    sn_crashes = a.sn_crashes + b.sn_crashes;
    sn_finishes = a.sn_finishes + b.sn_finishes;
    sn_span_errors = a.sn_span_errors + b.sn_span_errors;
  }
