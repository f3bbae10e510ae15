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
   same per-process results, same flip stream — provided the schedules
   match. Three scheduling loops replicate the corresponding
   {!Sim.Adversary} decision procedures exactly ([run_rr],
   [run_random], [run_seq]); pinned by test_flatsim's 120-seed
   differential suite. The effect path stays authoritative for
   everything else (adversary classes, crash schedules, Explore,
   Lincheck, Probe): the flat kernel trades generality for the trial
   throughput that multi-domain batches need. *)

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
         (from 1) is [draw flip_seed i]. *)
  mutable flip_idx : int;  (* flips drawn since [reset] *)
  status : int array;  (* 0 running / 1 finished *)
  results : int array;
  steps : int array;
  flips : int array;
  mutable time : int;
  mutable active : int;  (* processes participating in this run *)
  running : Sim.Running.t;  (* the same running set as Sched's *)
  record_flips : bool;
  mutable flip_log : (int * int * int * int) list;
      (* (time, pid, bound, outcome), reversed; bound < 0 encodes a
         geometric draw with cap [-bound], mirroring Op.Flip. *)
}

and program = {
  p_name : string;
  p_regs : int;  (* register-file size for [n] slots *)
  p_frame : int;  (* locals per process *)
  p_start : t -> int -> unit;
      (* Run a process from its entry point up to (but not through)
         its first shared-memory operation, flipping coins on the
         way — the flat image of [Sched.create] running a program to
         its first effect. Leaves the frame pc naming that operation. *)
  p_resume : t -> int -> unit;
      (* Execute the pending operation the frame pc names, then run
         local code to the next operation (updating the pc) or call
         [finish]. One call = one scheduled step. *)
}

(* Hot-path array accesses are unchecked ([Array.unsafe_get/set]): the
   scheduling loops only pass pids drawn from [running] (all in
   [0, active)), and register/frame indices come from the compiled
   programs, whose layouts are sized by [p_regs]/[p_frame] at [create]
   and pinned by test_flatsim's differential suite. The operations a
   program's resume performs (register write, flips, [finish]) live in
   programs.ml, beside their only caller. *)

(* {1 Construction and arena reuse} *)

(* Splitmix64 draw [i] of the stream seeded [seed], masked to a
   non-negative int: [Sim.Rng.int]'s value before its [mod] (constants
   as in rng.ml). The state after [i] draws is [seed + i * golden], so
   recomputing it per draw inside the caller keeps every Int64 unboxed
   and skips the record traffic of a heap generator. programs.ml keeps
   the flip stream's copy: under [-opaque] a call from there to here
   would not be inlined. *)
let[@inline] draw seed i =
  let s = Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int i)) in
  let z =
    Int64.mul
      (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL)

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
      steps = Array.make procs 0;
      flips = Array.make procs 0;
      time = 0;
      active = procs;
      running = Sim.Running.create procs;
      record_flips;
      flip_log = [];
    }
  in
  reset ~seed m;
  m

(* {1 Stepping} *)

(* Execute [pid]'s pending operation and run it to its next one. The
   caller guarantees [pid] is running (the scheduling loops below only
   draw from [running]); there is deliberately no status check on this
   path. *)
let step m pid =
  m.time <- m.time + 1;
  Array.unsafe_set m.steps pid (Array.unsafe_get m.steps pid + 1);
  m.prog.p_resume m pid

let default_max_steps = 10_000_000 (* Sched.run's default *)

let overrun max_total_steps who =
  (* Same shape (and catchability) as Sched.run's livelock failure. *)
  failwith
    (Printf.sprintf "Machine.run: exceeded %d steps under adversary %s"
       max_total_steps who)

(* Replicates {!Sim.Adversary.round_robin}: a cursor advances past each
   scheduled pid; the next decision picks the first runnable pid at or
   after it, cyclically. The scan is a loop over local refs, reading
   the running set's fields directly, so a call allocates nothing. *)
let run_rr ?(max_total_steps = default_max_steps) m =
  let resume = m.prog.p_resume in
  let steps = m.steps in
  let running = m.running in
  let run_arr = running.arr in
  let counter = ref 0 in
  while running.n > 0 do
    if m.time >= max_total_steps then overrun max_total_steps "round-robin";
    let base = running.base in
    let hi = base + running.n in
    let i = ref base in
    while !i < hi && Array.unsafe_get run_arr !i < !counter do
      incr i
    done;
    let pid = Array.unsafe_get run_arr (if !i < hi then !i else base) in
    counter := pid + 1;
    m.time <- m.time + 1;
    Array.unsafe_set steps pid (Array.unsafe_get steps pid + 1);
    resume m pid
  done

(* Replicates {!Sim.Adversary.random_oblivious}: one [Rng.int] draw per
   decision, indexing the ascending runnable array, on the same
   [Sim.Rng] stream the effect path's adversary draws from ([draw]).

   Software-pipelined: each iteration carries the already-mixed value
   [v] for the current draw and mixes draw i+1 before calling
   [resume], so the 3-multiply mix latency overlaps the resume body
   instead of extending the draw -> index -> resume serial chain. Once
   one process is left every draw would pick it, and draw i depends on
   i alone, so the solo tail skips the mix and the [mod]: the draws it
   leaves out are never read. Both loops keep their state in local
   refs, so a call allocates nothing. *)
let run_random ?(max_total_steps = default_max_steps) m ~seed =
  let resume = m.prog.p_resume in
  let steps = m.steps in
  let running = m.running in
  let run_arr = running.arr in
  let i = ref 1 and v = ref (draw seed 1) in
  while running.n > 1 do
    if m.time >= max_total_steps then
      overrun max_total_steps "random-oblivious";
    let v' = draw seed (!i + 1) in
    let pid = Array.unsafe_get run_arr (running.base + (!v mod running.n)) in
    m.time <- m.time + 1;
    Array.unsafe_set steps pid (Array.unsafe_get steps pid + 1);
    resume m pid;
    i := !i + 1;
    v := v'
  done;
  while running.n > 0 do
    if m.time >= max_total_steps then
      overrun max_total_steps "random-oblivious";
    let pid = Array.unsafe_get run_arr running.base in
    m.time <- m.time + 1;
    Array.unsafe_set steps pid (Array.unsafe_get steps pid + 1);
    resume m pid
  done

(* Run-to-completion in [order] — the differential-test schedule (the
   flat image of test_multicore's seq_order adversary). *)
let run_seq ?(max_total_steps = default_max_steps) m ~order =
  Array.iter
    (fun pid ->
      while m.status.(pid) = 0 do
        if m.time >= max_total_steps then overrun max_total_steps "seq-order";
        step m pid
      done)
    order

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
