type klass = Adaptive | Location_oblivious | Rw_oblivious | Oblivious

let pp_klass ppf = function
  | Adaptive -> Fmt.string ppf "adaptive"
  | Location_oblivious -> Fmt.string ppf "location-oblivious"
  | Rw_oblivious -> Fmt.string ppf "rw-oblivious"
  | Oblivious -> Fmt.string ppf "oblivious"

type status = Running | Finished of int | Crashed

type pending_view = {
  view_pid : int;
  view_kind : [ `Read | `Write ] option;
  view_reg : int option;
  view_reg_name : string option;
  view_value : int option;
  view_steps : int;
}

type view = {
  view_time : int;
  runnable : int array;
  pending_of : int -> pending_view;
}

type decision =
  | Schedule of int
  | Crash_proc of int
  | Halt

type adversary = {
  adv_name : string;
  adv_klass : klass;
  decide : view -> decision;
}

(* A process suspended at its pending shared-memory operation: the
   effect continuation plus the operation descriptor, in one block.
   [step] performs the operation and resumes the continuation directly,
   so no per-operation resume closure is ever allocated. *)
type susp =
  | Blocked_read of Register.t * (int, unit) Effect.Deep.continuation
  | Blocked_write of Register.t * int * (unit, unit) Effect.Deep.continuation

type proc = {
  pid : int;
  mutable p_status : status;
  mutable p_susp : susp option;
  mutable p_steps : int;
  mutable p_flips : int;
  mutable p_rmrs : int;
  mutable p_first_step : int;
  mutable p_finish : int;
}

type t = {
  rng : Rng.t;
  procs : proc array;
  mutable s_time : int;
  record_trace : bool;
  mutable events : Op.event list;  (* reversed *)
  (* The ambient Probe sink, captured at [create]/[reset] so the hot
     path tests one field instead of reading the domain-local slot on
     every step. [None] costs a load and a branch per step — the same
     class of overhead as [record_trace]. *)
  mutable probe : Obs.Probe.sink option;
  flip_oracle : (pid:int -> bound:int -> int option) option;
  (* Cache-coherence bookkeeping for RMR accounting: per register (by
     allocation id) a bitset over pids of the processes holding a valid
     cached copy, [cache_len] bytes at offset [id * cache_len] of one flat
     [Bytes.t]. The pid universe is fixed at [create], so membership is
     a bit test. [cache] grows by doubling to cover the largest id seen;
     [touched.(0 .. n_touched-1)] lists the ids whose bitset is
     non-empty, so [reset] clears those and nothing else. *)
  mutable cache : Bytes.t;
  cache_len : int;  (* bytes per register bitset: ceil(nprocs / 8) *)
  mutable touched : int array;
  mutable n_touched : int;
  (* [runnable] is recomputed only when some process stops running. *)
  mutable n_running : int;
  mutable runnable_cache : int array option;
  (* [|0; 1; ...; n-1|], the runnable array while everyone runs: shared
     by every run through this scheduler instead of re-allocated. *)
  all_pids : int array;
}

(* Offset of [reg_id]'s bitset in [cache], growing [cache] on demand. *)
let cache_off t reg_id =
  let off = reg_id * t.cache_len in
  let cur = Bytes.length t.cache in
  if off >= cur then begin
    let len = max (off + t.cache_len) (max (8 * t.cache_len) (2 * cur)) in
    let grown = Bytes.make len '\000' in
    Bytes.blit t.cache 0 grown 0 cur;
    t.cache <- grown
  end;
  off

let is_clear t off =
  let rec go i =
    i = t.cache_len
    || (Bytes.unsafe_get t.cache (off + i) = '\000' && go (i + 1))
  in
  go 0

(* Record that [reg_id]'s bitset is about to become non-empty. A set
   bitset stays non-empty until [reset] (a write leaves the writer's
   bit), so each id is pushed at most once per run. *)
let touch t reg_id =
  let len = Array.length t.touched in
  if t.n_touched = len then begin
    let grown = Array.make (max 16 (2 * len)) 0 in
    Array.blit t.touched 0 grown 0 len;
    t.touched <- grown
  end;
  Array.unsafe_set t.touched t.n_touched reg_id;
  t.n_touched <- t.n_touched + 1

(* CC-model RMR accounting: a read is local iff the reader holds a valid
   cached copy; it caches the register. A write always counts as an RMR
   and invalidates every other copy. *)
let account_read t p reg_id =
  let off = cache_off t reg_id in
  let byte = off + (p.pid lsr 3) and mask = 1 lsl (p.pid land 7) in
  let b = Char.code (Bytes.unsafe_get t.cache byte) in
  if b land mask = 0 then begin
    if is_clear t off then touch t reg_id;
    p.p_rmrs <- p.p_rmrs + 1;
    Bytes.unsafe_set t.cache byte (Char.unsafe_chr (b lor mask));
    true
  end
  else false

let account_write t p reg_id =
  let off = cache_off t reg_id in
  if is_clear t off then touch t reg_id;
  Bytes.fill t.cache off t.cache_len '\000';
  Bytes.unsafe_set t.cache (off + (p.pid lsr 3))
    (Char.unsafe_chr (1 lsl (p.pid land 7)));
  p.p_rmrs <- p.p_rmrs + 1

(* Cached copies a write by [pid] would invalidate (register
   contention). Off the hot path: only evaluated when a probe sink is
   installed, before [account_write] clears the bitset. *)
let count_other_cached t reg_id pid =
  let off = reg_id * t.cache_len in
  if off >= Bytes.length t.cache then 0
  else begin
    let n = ref 0 in
    for i = off to off + t.cache_len - 1 do
      let b = ref (Char.code (Bytes.unsafe_get t.cache i)) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr n
      done
    done;
    let byte = off + (pid lsr 3) and mask = 1 lsl (pid land 7) in
    if Char.code (Bytes.get t.cache byte) land mask <> 0 then !n - 1 else !n
  end

let draw t pid bound =
  match t.flip_oracle with
  | Some oracle -> (
      match oracle ~pid ~bound with
      | Some v -> v
      | None -> if bound < 0 then Rng.geometric_capped t.rng (-bound) else Rng.int t.rng bound)
  | None ->
      if bound < 0 then Rng.geometric_capped t.rng (-bound) else Rng.int t.rng bound

let stopped_running t =
  t.n_running <- t.n_running - 1;
  t.runnable_cache <- None

let start t p (body : Ctx.t -> int) =
  let open Effect.Deep in
  let ctx = Ctx.make ~pid:p.pid in
  let retc result =
    p.p_status <- Finished result;
    p.p_susp <- None;
    p.p_finish <- t.s_time;
    stopped_running t;
    if t.record_trace then
      t.events <- Op.Finish { time = t.s_time; pid = p.pid; result } :: t.events;
    match t.probe with
    | None -> ()
    | Some s -> s.on_finish ~time:t.s_time ~pid:p.pid ~result
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    fun eff ->
    match eff with
    | Ctx.Read_eff r -> Some (fun k -> p.p_susp <- Some (Blocked_read (r, k)))
    | Ctx.Write_eff (r, v) ->
        Some (fun k -> p.p_susp <- Some (Blocked_write (r, v, k)))
    | Ctx.Flip_eff bound ->
        Some
          (fun k ->
            let outcome = draw t p.pid bound in
            p.p_flips <- p.p_flips + 1;
            if t.record_trace then
              t.events <-
                Op.Flip { time = t.s_time; pid = p.pid; bound; outcome }
                :: t.events;
            (match t.probe with
            | None -> ()
            | Some s -> s.on_flip ~time:t.s_time ~pid:p.pid ~bound ~outcome);
            continue k outcome)
    | Ctx.Flip_geom_eff l ->
        Some
          (fun k ->
            let outcome = draw t p.pid (-l) in
            p.p_flips <- p.p_flips + 1;
            if t.record_trace then
              t.events <-
                Op.Flip { time = t.s_time; pid = p.pid; bound = -l; outcome }
                :: t.events;
            (match t.probe with
            | None -> ()
            | Some s -> s.on_flip ~time:t.s_time ~pid:p.pid ~bound:(-l) ~outcome);
            continue k outcome)
    | _ -> None
  in
  match_with body ctx { retc; exnc = raise; effc }

let create ?(seed = 0x5EEDL) ?(record_trace = false) ?flip_oracle programs =
  let rng = Rng.create seed in
  let procs =
    Array.mapi
      (fun pid _ ->
        {
          pid;
          p_status = Running;
          p_susp = None;
          p_steps = 0;
          p_flips = 0;
          p_rmrs = 0;
          p_first_step = -1;
          p_finish = -1;
        })
      programs
  in
  let n = Array.length programs in
  let all_pids = Array.init n (fun pid -> pid) in
  let t =
    {
      rng;
      procs;
      s_time = 0;
      record_trace;
      events = [];
      (* Captured before the programs start: flips fired while running
         each program to its first operation already reach the sink. *)
      probe = Obs.Probe.current ();
      flip_oracle;
      cache = Bytes.empty;
      cache_len = (n + 7) / 8;
      touched = [||];
      n_touched = 0;
      n_running = n;
      runnable_cache = Some all_pids;
      all_pids;
    }
  in
  Array.iteri (fun pid body -> start t procs.(pid) body) programs;
  t

(* The arena-reuse path: restore a scheduler to the state [create]
   would produce — same process count, same [record_trace] and
   [flip_oracle] — without re-allocating the proc records, the cache
   or the scheduler record itself; only the bitsets the last run
   touched are cleared. Shared registers are {e not}
   reset here: the caller resets its [Memory.t] arenas (which restores
   every register) and then resets the scheduler; see [Engine.run_local]
   for the per-worker pattern. *)
let reset ?(seed = 0x5EEDL) t programs =
  if Array.length programs <> Array.length t.procs then
    invalid_arg "Sched.reset: process count differs from create";
  Rng.reseed t.rng seed;
  t.s_time <- 0;
  t.events <- [];
  (* Re-read the ambient sink: a probe installed (or removed) since
     [create] takes effect on the next trial, before programs restart. *)
  t.probe <- Obs.Probe.current ();
  t.n_running <- Array.length t.procs;
  t.runnable_cache <- Some t.all_pids;
  for i = 0 to t.n_touched - 1 do
    Bytes.fill t.cache (t.touched.(i) * t.cache_len) t.cache_len '\000'
  done;
  t.n_touched <- 0;
  Array.iter
    (fun p ->
      p.p_status <- Running;
      p.p_susp <- None;
      p.p_steps <- 0;
      p.p_flips <- 0;
      p.p_rmrs <- 0;
      p.p_first_step <- -1;
      p.p_finish <- -1)
    t.procs;
  Array.iteri (fun pid body -> start t t.procs.(pid) body) programs

let n t = Array.length t.procs
let time t = t.s_time
let status t pid = t.procs.(pid).p_status
let steps t pid = t.procs.(pid).p_steps
let flips t pid = t.procs.(pid).p_flips
let rmrs t pid = t.procs.(pid).p_rmrs

let max_rmrs t =
  Array.fold_left (fun acc p -> max acc p.p_rmrs) 0 t.procs

let pending t pid =
  match t.procs.(pid).p_susp with
  | None -> None
  | Some (Blocked_read (reg, _)) -> Some { Op.reg; kind = Op.Read }
  | Some (Blocked_write (reg, v, _)) -> Some { Op.reg; kind = Op.Write v }

let first_step_time t pid = t.procs.(pid).p_first_step
let finish_time t pid = t.procs.(pid).p_finish

let result t pid =
  match t.procs.(pid).p_status with Finished r -> Some r | _ -> None

let runnable t =
  match t.runnable_cache with
  | Some a -> a
  | None ->
      let a = Array.make t.n_running 0 in
      let j = ref 0 in
      Array.iter
        (fun p ->
          if p.p_status = Running then begin
            a.(!j) <- p.pid;
            incr j
          end)
        t.procs;
      t.runnable_cache <- Some a;
      a

let any_running t = t.n_running > 0

let step t pid =
  let p = t.procs.(pid) in
  match (p.p_status, p.p_susp) with
  | Running, Some susp -> (
      t.s_time <- t.s_time + 1;
      p.p_steps <- p.p_steps + 1;
      if p.p_first_step < 0 then p.p_first_step <- t.s_time;
      p.p_susp <- None;
      match susp with
      | Blocked_read (r, k) ->
          let rmr = account_read t p r.Register.id in
          let v = Register.read r in
          if t.record_trace then
            t.events <-
              Op.Step
                {
                  time = t.s_time;
                  pid = p.pid;
                  reg = r.Register.id;
                  reg_name = r.Register.name;
                  kind = Op.Read;
                  read_value = Some v;
                  seen_writer = r.Register.last_writer;
                }
              :: t.events;
          (match t.probe with
          | None -> ()
          | Some s ->
              s.on_step ~time:t.s_time ~pid:p.pid ~reg:r.Register.id
                ~reg_name:r.Register.name ~write:false ~value:v ~rmr
                ~invalidated:0);
          Effect.Deep.continue k v
      | Blocked_write (r, v, k) ->
          (* Contention (copies this write invalidates) must be read off
             the bitset before [account_write] clears it. *)
          let invalidated =
            match t.probe with
            | None -> 0
            | Some _ -> count_other_cached t r.Register.id p.pid
          in
          account_write t p r.Register.id;
          Register.write r ~writer:p.pid v;
          if t.record_trace then
            t.events <-
              Op.Step
                {
                  time = t.s_time;
                  pid = p.pid;
                  reg = r.Register.id;
                  reg_name = r.Register.name;
                  kind = Op.Write v;
                  read_value = None;
                  seen_writer = -1;
                }
              :: t.events;
          (match t.probe with
          | None -> ()
          | Some s ->
              s.on_step ~time:t.s_time ~pid:p.pid ~reg:r.Register.id
                ~reg_name:r.Register.name ~write:true ~value:v ~rmr:true
                ~invalidated);
          Effect.Deep.continue k ())
  | Running, None ->
      (* A running process is always poised at an operation: [create]
         runs every program to its first effect. *)
      invalid_arg "Sched.step: process has no pending operation"
  | (Finished _ | Crashed), _ ->
      invalid_arg "Sched.step: process is not running"

let crash t pid =
  let p = t.procs.(pid) in
  match p.p_status with
  | Running ->
      p.p_status <- Crashed;
      p.p_susp <- None;
      stopped_running t;
      if t.record_trace then
        t.events <- Op.Crash { time = t.s_time; pid } :: t.events;
      (match t.probe with
      | None -> ()
      | Some s -> s.on_crash ~time:t.s_time ~pid)
  | Finished _ | Crashed -> invalid_arg "Sched.crash: process is not running"

let filter_pending klass p =
  let kind, reg, reg_name, value =
    match p.p_susp with
    | None -> (None, None, None, None)
    | Some (Blocked_read (r, _)) ->
        (Some `Read, Some r.Register.id, Some r.Register.name, None)
    | Some (Blocked_write (r, v, _)) ->
        (Some `Write, Some r.Register.id, Some r.Register.name, Some v)
  in
  match klass with
  | Adaptive ->
      {
        view_pid = p.pid;
        view_kind = kind;
        view_reg = reg;
        view_reg_name = reg_name;
        view_value = value;
        view_steps = p.p_steps;
      }
  | Location_oblivious ->
      {
        view_pid = p.pid;
        view_kind = kind;
        view_reg = None;
        view_reg_name = None;
        view_value = value;
        view_steps = p.p_steps;
      }
  | Rw_oblivious ->
      {
        view_pid = p.pid;
        view_kind = None;
        view_reg = reg;
        view_reg_name = reg_name;
        view_value = None;
        view_steps = p.p_steps;
      }
  | Oblivious ->
      {
        view_pid = p.pid;
        view_kind = None;
        view_reg = None;
        view_reg_name = None;
        view_value = None;
        view_steps = p.p_steps;
      }

let view t klass =
  {
    view_time = t.s_time;
    runnable = runnable t;
    pending_of = (fun pid -> filter_pending klass t.procs.(pid));
  }

let run ?(max_total_steps = 10_000_000) t adv =
  (* The pending_of closure is allocated once per run, not per step. *)
  let klass = adv.adv_klass in
  let pending_of pid = filter_pending klass t.procs.(pid) in
  while any_running t do
    (* Inclusive bound: an execution may take exactly [max_total_steps]
       steps; needing even one more fails. *)
    if t.s_time >= max_total_steps then
      failwith
        (Printf.sprintf "Sched.run: exceeded %d steps under adversary %s"
           max_total_steps adv.adv_name);
    match
      adv.decide { view_time = t.s_time; runnable = runnable t; pending_of }
    with
    | Schedule pid -> step t pid
    | Crash_proc pid -> crash t pid
    | Halt ->
        Array.iter (fun p -> if p.p_status = Running then crash t p.pid) t.procs
  done

let trace t = List.rev t.events

let max_steps t =
  Array.fold_left (fun acc p -> max acc p.p_steps) 0 t.procs

let results t = Array.map (fun p -> match p.p_status with Finished r -> Some r | _ -> None) t.procs
