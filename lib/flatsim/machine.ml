(* The flat execution kernel: step-indexed state machines over an
   int-array register file and int-array local frames.

   Where the effect-handler simulator ({!Sim.Sched}) suspends a real
   OCaml computation at every shared-memory operation — an effect
   perform, a captured continuation and an adversary closure per step —
   the flat kernel represents a process as nothing but integers: a
   frame of locals inside one shared [frames] array with a program
   counter stored in that frame. A step calls the program's [p_resume],
   which {e executes the process's pending shared-memory operation}
   against [regs] (the frame's pc encodes which operation is pending
   and on which register) and then runs the process's local code
   (branches, coin flips) up to its next operation — leaving the new
   pc in the frame — or retires it with [finish]. Fusing the operation
   into the resume this way keeps the op executing exactly at its
   scheduled step (same memory semantics as a pending-op queue) while
   touching no per-process op buffers. Nothing on this path allocates:
   arenas are created once and [reset] restores them field-by-field,
   so a trial batch reuses one machine for millions of runs
   (DESIGN.md §13).

   Determinism contract: a flat run is {e bit-identical} to the
   effect-handler simulator running the same algorithm — same winner,
   same per-process results, same flip stream — under the same
   schedule: [run] is [Sched.run]'s loop, so one oblivious adversary —
   a fault plan over one included — decides alike on both kernels
   (pinned by test_flatsim's 120-seed differential suite). The effect
   path stays the oracle for the classes that see pending operations,
   and for Explore, Lincheck and Probe. *)

type t = {
  prog : program;
  capacity : int;  (* processes the arrays are sized for *)
  frame_words : int;  (* copy of [prog.p_frame], hot-path local *)
  regs : int array;  (* shared register file, all registers initially 0 *)
  stamp : int array;  (* per register: [epoch] of its last write *)
  dirty : int array;  (* registers written this epoch, each once *)
  mutable n_dirty : int;
  mutable epoch : int;
  frames : int array;  (* capacity * frame_words process locals *)
  mutable flip_seed : int64;
      (* The shared flip stream, exactly Sched's [t.rng]: flip i
         (from 1) is splitmix64 draw i of [flip_seed] (programs.ml). *)
  mutable flip_idx : int;  (* flips drawn since [reset] *)
  status : int array;  (* 0 running / 1 finished / 2 crashed *)
  results : int array;
  steps : int array;
  flips : int array;
  mutable time : int;
  mutable active : int;  (* processes participating in this run *)
  running : Sim.Running.t;  (* the same running set as Sched's *)
  view : Sim.Sched.view;  (* the one view [run] refreshes per decision *)
  record_flips : bool;
  mutable flip_log : (int * int * int * int) list;
      (* (time, pid, bound, outcome), reversed; bound < 0 encodes a
         geometric draw with cap [-bound], mirroring Op.Flip. *)
}

and program = {
  p_name : string;
  p_regs : int;  (* register-file size for [n] slots *)
  p_frame : int;  (* locals per process *)
  p_start : t -> int -> unit;  (* to the first operation (machine.mli) *)
  p_resume : t -> int -> unit;  (* one scheduled step (machine.mli) *)
}

(* Hot-path array accesses are unchecked ([Array.unsafe_get/set]): [run]
   only steps pids it checked are running (all in [0, active)), and
   register/frame indices come from the compiled programs, whose
   layouts are sized by [p_regs]/[p_frame] at [create] and pinned by
   test_flatsim's differential suite. The operations a program's resume
   performs (register write, flips, [finish]) live in programs.ml,
   beside their only caller. *)

(* {1 Construction and arena reuse} *)

let default_seed = 0x5EEDL (* Sched.create's default *)

let reset ~seed ?procs m =
  let procs =
    match procs with
    | None -> m.capacity
    | Some k ->
        if k < 1 || k > m.capacity then
          invalid_arg "Machine.reset: procs out of range";
        k
  in
  m.flip_seed <- seed;
  m.flip_idx <- 0;
  m.time <- 0;
  m.active <- procs;
  Sim.Running.reset m.running procs;
  (* Clear only the registers the last trial wrote (programs.ml's
     [write_reg] logs them in [dirty]). *)
  (let regs = m.regs and dirty = m.dirty in
   for i = 0 to m.n_dirty - 1 do
     Array.unsafe_set regs (Array.unsafe_get dirty i) 0
   done);
  m.n_dirty <- 0;
  m.epoch <- m.epoch + 1;
  (* [frames] is deliberately not cleared: a program's [p_start] (and
     every later sub-machine start) initializes each frame slot before
     any path reads it — part of the compilation contract, exercised
     by test_flatsim's reset-equals-fresh and differential tests. *)
  Array.fill m.status 0 procs 0;
  Array.fill m.results 0 procs 0;
  Array.fill m.steps 0 procs 0;
  Array.fill m.flips 0 procs 0;
  m.flip_log <- [];
  (* Run every program to its first operation, in pid order — flips
     fired before the first operation draw here, exactly as
     [Sched.create] does. *)
  for pid = 0 to procs - 1 do
    m.prog.p_start m pid
  done

let create ?(seed = default_seed) ?(record_flips = false) ~procs prog =
  if procs < 1 then invalid_arg "Machine.create: procs must be >= 1";
  let steps = Array.make procs 0 and running = Sim.Running.create procs in
  let m =
    {
      prog;
      capacity = procs;
      frame_words = prog.p_frame;
      regs = Array.make (max 1 prog.p_regs) 0;
      stamp = Array.make (max 1 prog.p_regs) 0;
      dirty = Array.make (max 1 prog.p_regs) 0;
      n_dirty = 0;
      epoch = 1;
      frames = Array.make (procs * max 1 prog.p_frame) 0;
      flip_seed = seed;
      flip_idx = 0;
      status = Array.make procs 0;
      results = Array.make procs 0;
      steps;
      flips = Array.make procs 0;
      time = 0;
      active = procs;
      running;
      view = Sim.Sched.oblivious_view ~steps running;
      record_flips;
      flip_log = [];
    }
  in
  reset ~seed m;
  m

(* {1 Scheduling} *)

let default_max_steps = 10_000_000 (* Sched.run's default *)

let overrun max_total_steps who =
  (* Same shape (and catchability) as Sched.run's livelock failure. *)
  failwith
    (Printf.sprintf "Machine.run: exceeded %d steps under adversary %s"
       max_total_steps who)

(* A crashed pid retires with status 2 and no result. *)
let crash m pid =
  Sim.Running.remove m.running pid;
  m.status.(pid) <- 2

(* [Sched.run] over the flat machine: the same decisions, step bound
   and failure, through the oblivious view the machine owns. A step
   checks the pid against [status] inline and calls [p_resume], so it
   allocates nothing beyond what the adversary does. *)
let run ?(max_total_steps = default_max_steps) m (adv : Sim.Sched.adversary) =
  if adv.adv_klass <> Oblivious then
    invalid_arg ("Machine.run: adversary " ^ adv.adv_name ^ " is not oblivious");
  let running = m.running and view = m.view and decide = adv.decide in
  let status = m.status and active = m.active in
  (* A wrapper that raised mid-decision may have left its own set. *)
  if view.runnable != running then view.runnable <- running;
  while running.n > 0 do
    if m.time >= max_total_steps then overrun max_total_steps adv.adv_name;
    view.view_time <- m.time;
    let d = decide view in
    if d >= 0 then begin
      if d >= active || Array.unsafe_get status d <> 0 then
        invalid_arg "Machine.run: process is not running";
      m.time <- m.time + 1;
      Array.unsafe_set m.steps d (Array.unsafe_get m.steps d + 1);
      m.prog.p_resume m d
    end
    else if d = Sim.Sched.halt then
      while running.n > 0 do crash m (Sim.Running.get running 0) done
    else crash m (Sim.Sched.crash_proc d)
  done

(* Kept for the benchmark's callers; it goes with them. *)
let run_random ?max_total_steps m ~seed =
  run ?max_total_steps m (Sim.Adversary.random_oblivious ~seed)

(* {1 Observation} *)

let procs m = m.active
let time m = m.time
let running m pid = m.status.(pid) = 0
let result m pid = if m.status.(pid) = 1 then Some m.results.(pid) else None

let results m = Array.init m.active (fun pid -> result m pid)

let steps m pid = m.steps.(pid)

let total_flips m =
  let flips = m.flips in
  let acc = ref 0 in
  for pid = 0 to m.active - 1 do
    acc := !acc + Array.unsafe_get flips pid
  done;
  !acc

let flip_log m = List.rev m.flip_log
