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
  runnable : Running.t;
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

(* The operation a running process is poised at, if any. *)
type poised = Nothing | Reading | Writing

type proc = {
  pid : int;
  ctx : Ctx.t;
  mutable p_status : status;
  (* The pending operation sits in plain fields, so suspending a
     process allocates nothing of the scheduler's own: [p_op] names it,
     [p_reg]/[p_value] are its register and write value, and exactly
     one continuation slot is live — the other holds a placeholder that
     is never resumed. [p_bound] carries a flip's bound from the effect
     to the handler's prebuilt flip closure. *)
  mutable p_op : poised;
  mutable p_reg : Register.t;
  mutable p_value : int;
  mutable p_bound : int;
  mutable p_read_k : (int, unit) Effect.Deep.continuation;
  mutable p_write_k : (unit, unit) Effect.Deep.continuation;
  mutable p_steps : int;
  mutable p_flips : int;
  mutable p_rmrs : int;
  mutable p_first_step : int;
  mutable p_finish : int;
}

(* Placeholders for an empty pending slot; see [proc]. The
   continuation placeholders are immediates behind an abstract type:
   [p_op] guarantees they are never resumed. *)
let no_reg = Register.create ~name:"none" (Memory.create ())
let no_read_k : (int, unit) Effect.Deep.continuation = Obj.magic ()
let no_write_k : (unit, unit) Effect.Deep.continuation = Obj.magic ()

let clear_pending p =
  p.p_op <- Nothing;
  p.p_reg <- no_reg;
  p.p_read_k <- no_read_k;
  p.p_write_k <- no_write_k

type t = {
  rng : Rng.t;
  procs : proc array;
  (* One effect handler per process, built once at [create] and reused
     by every [reset]: starting a program allocates no handler
     closures. *)
  mutable handlers : (int, unit) Effect.Deep.handler array;
  mutable s_time : int;
  (* [record_trace]'s log (reversed) and the sink that fills it. *)
  events : Op.event list ref;
  recorder : Obs.Probe.sink option;
  (* The sink every event goes to: the recorder teed with the ambient
     Probe sink, captured at [create]/[reset] so the hot path tests one
     field instead of reading the domain-local slot on every step.
     [None] costs a load and a branch per step. *)
  mutable probe : Obs.Probe.sink option;
  flip_oracle : (pid:int -> bound:int -> int option) option;
  (* Cache-coherence bookkeeping for RMR accounting: per register (by
     allocation id) a slot of a touched flag byte followed by a bitset
     over pids of the processes holding a valid cached copy,
     [cache_len] bytes. The pid universe is fixed at [create], so
     membership is a bit test. Slots live in pages of [page_regs]
     registers: page [id lsr page_bits] is allocated on the first touch
     of any of its registers ([Bytes.empty] until then), so memory
     follows the registers a run touches, not the largest id.
     [touched.(0 .. n_touched-1)] lists the ids whose flag is set, so
     [reset] clears those and nothing else. *)
  mutable pages : Bytes.t array;
  cache_len : int;  (* bytes per register bitset: ceil(nprocs / 8) *)
  mutable touched : int array;
  mutable n_touched : int;
  (* The running pids, ascending, shrunk in place as processes stop:
     the [runnable] every view hands out. *)
  running : Running.t;
}

let page_bits = 8
let page_regs = 1 lsl page_bits

(* [reg_id]'s page, allocated on first touch. *)
let page t reg_id =
  let i = reg_id lsr page_bits in
  let len = Array.length t.pages in
  if i >= len then begin
    let grown = Array.make (max (i + 1) (2 * len)) Bytes.empty in
    Array.blit t.pages 0 grown 0 len;
    t.pages <- grown
  end;
  let pg = Array.unsafe_get t.pages i in
  if Bytes.length pg > 0 then pg
  else begin
    let pg = Bytes.make (page_regs * (t.cache_len + 1)) '\000' in
    Array.unsafe_set t.pages i pg;
    pg
  end

(* Offset of [reg_id]'s slot within its page: the touched flag, then
   the bitset from [off + 1]. *)
let slot t reg_id = (reg_id land (page_regs - 1)) * (t.cache_len + 1)

(* [reg_id]'s bitset is about to change: on the first change since
   [reset], set its flag and push it on [touched]. *)
let touch t pg off reg_id =
  if Bytes.unsafe_get pg off = '\000' then begin
    Bytes.unsafe_set pg off '\001';
    let len = Array.length t.touched in
    if t.n_touched = len then begin
      let grown = Array.make (max 16 (2 * len)) 0 in
      Array.blit t.touched 0 grown 0 len;
      t.touched <- grown
    end;
    Array.unsafe_set t.touched t.n_touched reg_id;
    t.n_touched <- t.n_touched + 1
  end

(* CC-model RMR accounting: a read is local iff the reader holds a valid
   cached copy; it caches the register. A write always counts as an RMR
   and invalidates every other copy. *)
let account_read t p reg_id =
  let pg = page t reg_id and off = slot t reg_id in
  let byte = off + 1 + (p.pid lsr 3) and mask = 1 lsl (p.pid land 7) in
  let b = Char.code (Bytes.unsafe_get pg byte) in
  if b land mask = 0 then begin
    touch t pg off reg_id;
    p.p_rmrs <- p.p_rmrs + 1;
    Bytes.unsafe_set pg byte (Char.unsafe_chr (b lor mask));
    true
  end
  else false

let account_write t p reg_id =
  let pg = page t reg_id and off = slot t reg_id in
  touch t pg off reg_id;
  Bytes.fill pg (off + 1) t.cache_len '\000';
  Bytes.unsafe_set pg (off + 1 + (p.pid lsr 3))
    (Char.unsafe_chr (1 lsl (p.pid land 7)));
  p.p_rmrs <- p.p_rmrs + 1

(* Cached copies a write by [pid] would invalidate (register
   contention). Off the hot path: only evaluated when events go to a
   sink, before [account_write] clears the bitset. *)
let count_other_cached t reg_id pid =
  let pi = reg_id lsr page_bits in
  if pi >= Array.length t.pages || Bytes.length t.pages.(pi) = 0 then 0
  else begin
    let pg = t.pages.(pi) and off = slot t reg_id + 1 in
    let n = ref 0 in
    for i = off to off + t.cache_len - 1 do
      let b = ref (Char.code (Bytes.unsafe_get pg i)) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr n
      done
    done;
    let byte = off + (pid lsr 3) and mask = 1 lsl (pid land 7) in
    if Char.code (Bytes.get pg byte) land mask <> 0 then !n - 1 else !n
  end

let draw t pid bound =
  match t.flip_oracle with
  | Some oracle -> (
      match oracle ~pid ~bound with
      | Some v -> v
      | None -> if bound < 0 then Rng.geometric_capped t.rng (-bound) else Rng.int t.rng bound)
  | None ->
      if bound < 0 then Rng.geometric_capped t.rng (-bound) else Rng.int t.rng bound

(* The sink behind [record_trace]: it logs every event as an
   [Op.event]. *)
let recorder events =
  let log e = events := e :: !events in
  {
    Obs.Probe.on_step =
      (fun ~time ~pid ~reg ~reg_name ~write ~value ~rmr:_ ~invalidated:_ ->
        log
          (Op.Step
             {
               time;
               pid;
               reg;
               reg_name;
               kind = (if write then Op.Write value else Op.Read);
               read_value = (if write then None else Some value);
             }));
    on_flip =
      (fun ~time ~pid ~bound ~outcome ->
        log (Op.Flip { time; pid; bound; outcome }));
    on_crash = (fun ~time ~pid -> log (Op.Crash { time; pid }));
    on_finish = (fun ~time ~pid ~result -> log (Op.Finish { time; pid; result }));
    on_span_enter = (fun ~pid:_ ~phase:_ -> ());
    on_span_exit = (fun ~pid:_ ~phase:_ -> ());
  }

(* The recorder, if any, first, then the ambient sink. *)
let sink recorder =
  match (recorder, Obs.Probe.current ()) with
  | None, ambient -> ambient
  | Some r, None -> Some r
  | Some r, Some ambient -> Some (Obs.Probe.tee r ambient)

(* Process [p]'s effect handler. Everything it hands the runtime — the
   handler record and one continuation closure per effect kind — is
   built here once, so a shared-memory operation only fills [p]'s
   pending fields and a flip only sets [p_bound]. *)
let handler t p =
  let open Effect.Deep in
  let on_read = Some (fun k -> p.p_read_k <- k)
  and on_write = Some (fun k -> p.p_write_k <- k)
  and on_flip =
    Some
      (fun k ->
        let bound = p.p_bound in
        let outcome = draw t p.pid bound in
        p.p_flips <- p.p_flips + 1;
        (match t.probe with
        | None -> ()
        | Some s -> s.on_flip ~time:t.s_time ~pid:p.pid ~bound ~outcome);
        continue k outcome)
  in
  let retc result =
    p.p_status <- Finished result;
    p.p_finish <- t.s_time;
    Running.remove t.running p.pid;
    match t.probe with
    | None -> ()
    | Some s -> s.on_finish ~time:t.s_time ~pid:p.pid ~result
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Ctx.Read_eff r ->
        p.p_op <- Reading;
        p.p_reg <- r;
        on_read
    | Ctx.Write_eff (r, v) ->
        p.p_op <- Writing;
        p.p_reg <- r;
        p.p_value <- v;
        on_write
    | Ctx.Flip_eff bound ->
        p.p_bound <- bound;
        on_flip
    | Ctx.Flip_geom_eff l ->
        p.p_bound <- -l;
        on_flip
    | _ -> None
  in
  { retc; exnc = raise; effc }

let start t pid body =
  Effect.Deep.match_with body t.procs.(pid).ctx t.handlers.(pid)

let create ?(seed = 0x5EEDL) ?(record_trace = false) ?flip_oracle programs =
  let rng = Rng.create seed in
  let procs =
    Array.mapi
      (fun pid _ ->
        {
          pid;
          ctx = Ctx.make ~pid;
          p_status = Running;
          p_op = Nothing;
          p_reg = no_reg;
          p_value = 0;
          p_bound = 0;
          p_read_k = no_read_k;
          p_write_k = no_write_k;
          p_steps = 0;
          p_flips = 0;
          p_rmrs = 0;
          p_first_step = -1;
          p_finish = -1;
        })
      programs
  in
  let n = Array.length programs in
  let events = ref [] in
  let recorder = if record_trace then Some (recorder events) else None in
  let t =
    {
      rng;
      procs;
      handlers = [||];
      s_time = 0;
      events;
      recorder;
      (* Captured before the programs start: flips fired while running
         each program to its first operation already reach the sink. *)
      probe = sink recorder;
      flip_oracle;
      pages = [||];
      cache_len = (n + 7) / 8;
      touched = [||];
      n_touched = 0;
      running = Running.create n;
    }
  in
  t.handlers <- Array.map (handler t) procs;
  Array.iteri (start t) programs;
  t

(* The arena-reuse path: restore a scheduler to the state [create]
   would produce — same process count, same [record_trace] and
   [flip_oracle] — without re-allocating the proc records, their
   handlers, the cache pages or the scheduler record itself; only the
   bitsets the last run touched are cleared. Shared registers are
   {e not} reset here: the caller resets its [Memory.t] arenas (which
   restores every register) and then resets the scheduler; see
   [Engine.run_local] for the per-worker pattern. *)
let reset ?(seed = 0x5EEDL) t programs =
  if Array.length programs <> Array.length t.procs then
    invalid_arg "Sched.reset: process count differs from create";
  Rng.reseed t.rng seed;
  t.s_time <- 0;
  t.events := [];
  (* Re-read the ambient sink: a probe installed (or removed) since
     [create] takes effect on the next trial, before programs restart. *)
  t.probe <- sink t.recorder;
  Running.reset t.running (Array.length t.procs);
  for i = 0 to t.n_touched - 1 do
    let id = t.touched.(i) in
    Bytes.fill t.pages.(id lsr page_bits) (slot t id) (t.cache_len + 1) '\000'
  done;
  t.n_touched <- 0;
  Array.iter
    (fun p ->
      p.p_status <- Running;
      clear_pending p;
      p.p_steps <- 0;
      p.p_flips <- 0;
      p.p_rmrs <- 0;
      p.p_first_step <- -1;
      p.p_finish <- -1)
    t.procs;
  Array.iteri (start t) programs

let n t = Array.length t.procs
let time t = t.s_time
let status t pid = t.procs.(pid).p_status
let steps t pid = t.procs.(pid).p_steps
let flips t pid = t.procs.(pid).p_flips
let rmrs t pid = t.procs.(pid).p_rmrs

let max_rmrs t =
  Array.fold_left (fun acc p -> max acc p.p_rmrs) 0 t.procs

let pending t pid =
  let p = t.procs.(pid) in
  match p.p_op with
  | Nothing -> None
  | Reading -> Some { Op.reg = p.p_reg; kind = Op.Read }
  | Writing -> Some { Op.reg = p.p_reg; kind = Op.Write p.p_value }

let first_step_time t pid = t.procs.(pid).p_first_step
let finish_time t pid = t.procs.(pid).p_finish

let result t pid =
  match t.procs.(pid).p_status with Finished r -> Some r | _ -> None

let begin_step t p =
  t.s_time <- t.s_time + 1;
  p.p_steps <- p.p_steps + 1;
  if p.p_first_step < 0 then p.p_first_step <- t.s_time;
  p.p_op <- Nothing

let step t pid =
  let p = t.procs.(pid) in
  match (p.p_status, p.p_op) with
  | Running, Reading ->
      begin_step t p;
      let r = p.p_reg in
      let rmr = account_read t p r.Register.id in
      let v = Register.read r in
      (match t.probe with
      | None -> ()
      | Some s ->
          s.on_step ~time:t.s_time ~pid:p.pid ~reg:r.Register.id
            ~reg_name:r.Register.name ~write:false ~value:v ~rmr
            ~invalidated:0);
      Effect.Deep.continue p.p_read_k v
  | Running, Writing ->
      begin_step t p;
      let r = p.p_reg and v = p.p_value in
      (* Contention (copies this write invalidates) must be read off
         the bitset before [account_write] clears it. *)
      let invalidated =
        match t.probe with
        | None -> 0
        | Some _ -> count_other_cached t r.Register.id p.pid
      in
      account_write t p r.Register.id;
      Register.write r ~writer:p.pid v;
      (match t.probe with
      | None -> ()
      | Some s ->
          s.on_step ~time:t.s_time ~pid:p.pid ~reg:r.Register.id
            ~reg_name:r.Register.name ~write:true ~value:v ~rmr:true
            ~invalidated);
      Effect.Deep.continue p.p_write_k ()
  | Running, Nothing ->
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
      clear_pending p;
      Running.remove t.running pid;
      (match t.probe with
      | None -> ()
      | Some s -> s.on_crash ~time:t.s_time ~pid)
  | Finished _ | Crashed -> invalid_arg "Sched.crash: process is not running"

(* What a [klass] adversary sees of [p]'s pending operation: the
   operation type and write value unless it is R/W-oblivious or
   oblivious, the register unless it is location-oblivious or
   oblivious. *)
let filter_pending klass p =
  let sees_kind = klass = Adaptive || klass = Location_oblivious
  and sees_reg = klass = Adaptive || klass = Rw_oblivious in
  let op = if sees_kind then p.p_op else Nothing
  and reg = if sees_reg && p.p_op <> Nothing then Some p.p_reg else None in
  {
    view_pid = p.pid;
    view_kind =
      (match op with
      | Nothing -> None
      | Reading -> Some `Read
      | Writing -> Some `Write);
    view_reg = Option.map (fun r -> r.Register.id) reg;
    view_reg_name = Option.map (fun r -> r.Register.name) reg;
    view_value = (if op = Writing then Some p.p_value else None);
    view_steps = p.p_steps;
  }

let view t klass =
  {
    view_time = t.s_time;
    runnable = t.running;
    pending_of = (fun pid -> filter_pending klass t.procs.(pid));
  }

let run ?(max_total_steps = 10_000_000) t adv =
  (* The pending_of closure is allocated once per run, not per step. *)
  let klass = adv.adv_klass in
  let pending_of pid = filter_pending klass t.procs.(pid) in
  while Running.length t.running > 0 do
    (* Inclusive bound: an execution may take exactly [max_total_steps]
       steps; needing even one more fails. *)
    if t.s_time >= max_total_steps then
      failwith
        (Printf.sprintf "Sched.run: exceeded %d steps under adversary %s"
           max_total_steps adv.adv_name);
    match
      adv.decide { view_time = t.s_time; runnable = t.running; pending_of }
    with
    | Schedule pid -> step t pid
    | Crash_proc pid -> crash t pid
    | Halt ->
        (* Lowest pid first, each removal shrinking the set it reads. *)
        while Running.length t.running > 0 do
          crash t (Running.get t.running 0)
        done
  done

let trace t = List.rev !(t.events)

let max_steps t =
  Array.fold_left (fun acc p -> max acc p.p_steps) 0 t.procs

let results t = Array.map (fun p -> match p.p_status with Finished r -> Some r | _ -> None) t.procs
