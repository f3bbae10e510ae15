(* Elections hand-compiled to flat {!Machine.program}s.

   Each compiled program replicates its effect-handler source
   operation-for-operation and flip-for-flip — same shared-memory ops in
   the same order, same inline coin flips between them — so a flat run
   is bit-identical to the effect path under any matching schedule
   (winner, per-process results, flip stream; pinned by test_flatsim).
   Sources of truth: lib/primitives/{le2,splitter}.ml,
   lib/groupelect/{ge_logstar,ge_sift,ge_poison}.ml,
   lib/leaderelect/{tournament,chain,le_logstar,poison_le,sift_le}.ml.

   Compilation model (DESIGN.md §13): each election is a set of
   sub-machines (duel, splitter, GroupElect round) with a fixed frame
   layout; a sub-machine's pc slot names its {e pending} shared-memory
   operation, and its [*_resume] — one call per scheduled step —
   executes that operation against the register file, runs local code
   (branches, flips), leaves the pc naming the next operation, and
   returns -1 while more operations remain or a completion code once
   done. The parent dispatches on a phase slot. Sub-machines that are
   never simultaneously active share frame slots. The elections are
   built like their sources: two spines, the duel [climb] and the
   [chain], each written once, with the rounds plugged into them.
   Registers are dense indices into the machine's register file;
   layouts below mirror the allocation order of the effect-path
   constructors (the indices themselves never need to match — only
   observable outcomes do).

   Everything here is hot-path: frame and register accesses are
   unchecked (see the contract note in machine.ml) — indices come from
   the fixed layouts, sized by [p_regs]/[p_frame] at [Machine.create]
   and pinned by the differential suite. *)

module M = Machine

(* Typed [int array] so every frame and register access is a plain
   load or store: a polymorphic binding compiles to a generic access
   that tests the array's tag, and stores through [caml_modify]. *)
let[@inline] uget (a : int array) i = Array.unsafe_get a i
let[@inline] uset (a : int array) i (v : int) = Array.unsafe_set a i v

(* {1 Machine operations}

   The primitives every resume calls. They live here, beside their
   only caller, rather than in machine.ml: dune's dev profile compiles
   with [-opaque], so a call into another module is an unknown call
   through [caml_applyN], never inlined. *)

(* All register writes funnel through here so [Machine.reset] can clear
   just the registers a trial touched (a log* machine for n = 512 has
   ~2.2k registers; a 64-process trial dirties a few dozen).
   [stamp]/[epoch] dedupe the log, bounding it by the register count. *)
let[@inline] write_reg m r v =
  uset m.M.regs r v;
  let e = m.M.epoch in
  if uget m.M.stamp r <> e then begin
    uset m.M.stamp r e;
    uset m.M.dirty m.M.n_dirty r;
    m.M.n_dirty <- m.M.n_dirty + 1
  end

(* The flip stream: machine.ml's [draw] ([Sim.Rng]'s splitmix64)
   copied here so it inlines into the resumes. *)
let[@inline] next_draw m =
  let i = m.M.flip_idx + 1 in
  m.M.flip_idx <- i;
  let seed = m.M.flip_seed in
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

(* Off the hot path: only a run that records flips gets here. *)
let[@inline never] log_flip m pid bound v =
  m.M.flip_log <- (m.M.time, pid, bound, v) :: m.M.flip_log

(* Inline fair draw in [0, bound) ([Sim.Rng.int]), logged like
   [Ctx.flip]. Flips are not scheduling points, exactly as in the
   effect path. Every [bound] here is a positive constant of the
   program. *)
let[@inline] flip m pid bound =
  let v = next_draw m mod bound in
  uset m.M.flips pid (uget m.M.flips pid + 1);
  if m.M.record_flips then log_flip m pid bound v;
  v

(* Geometric draw capped at [l] ([Sim.Rng.geometric_capped]: fair bits
   until the first 1, at most [l - 1] of them), logged with bound [-l]
   like [Ctx.flip_geometric]. *)
let[@inline] flip_geom m pid l =
  let v = ref 1 in
  while !v < l && next_draw m land 1 = 0 do
    incr v
  done;
  uset m.M.flips pid (uget m.M.flips pid + 1);
  if m.M.record_flips then log_flip m pid (-l) !v;
  !v

(* Retire [pid] with [result], dropping it from the running set the
   scheduling loops index ([Sim.Running], shared with the effect
   scheduler). The removal is a call into another module (a
   [caml_apply] under [-opaque]); kept out of line, it runs once per
   process exit and stays off the path of a step that goes on. *)
let[@inline never] finish m pid result =
  uset m.M.status pid 1;
  uset m.M.results pid result;
  Sim.Running.remove m.M.running pid

(* {1 Sub-machines}

   Every [*_resume] first executes the operation its pc names; a
   caller "starts" a sub-machine by zeroing (or setting) its pc slots,
   making the opening operation pending. *)

(* Le2 duel (lib/primitives/le2.ml). Frame: [pc; pos] at [b].
   pc 0 = read of [other] pending, 1 = our position write pending.
   Completion: 0 lost, 1 won. Caller zeroes both slots. *)

let[@inline] le2_resume m pid ~b ~mine ~other =
  let fr = m.M.frames and regs = m.M.regs in
  if uget fr b = 1 then begin
    (* execute the position write; loop back to the read *)
    write_reg m mine (uget fr (b + 1));
    uset fr b 0;
    -1
  end
  else begin
    let o = uget regs other in
    let pos = uget fr (b + 1) in
    if o >= pos + 2 then 0
    else if o <= pos - 3 then 1
    else if flip m pid 2 = 1 then begin
      uset fr (b + 1) (pos + 1);
      uset fr b 1;
      -1
    end
    else -1 (* tails: the read stays pending *)
  end

(* Moir-Anderson splitter (lib/primitives/splitter.ml). Frame: [pc] at
   [b]: 0 = race write pending, 1 = door read, 2 = door write,
   3 = race re-read. Completion: 0 = L, 1 = R, 2 = S. Caller zeroes
   the slot. *)

let[@inline] splitter_resume m pid ~b ~race ~door =
  let fr = m.M.frames and regs = m.M.regs in
  match uget fr b with
  | 0 ->
      write_reg m race (pid + 1);
      uset fr b 1;
      -1
  | 1 ->
      if uget regs door = 1 then 0
      else begin
        uset fr b 2;
        -1
      end
  | 2 ->
      write_reg m door 1;
      uset fr b 3;
      -1
  | _ -> if uget regs race = pid + 1 then 2 else 1

(* Figure-1 GroupElect round (lib/groupelect/ge_logstar.ml). Registers:
   r[0..l] at [rb..rb+l], flag at [rb+l+1]. Frame: [pc; x] at [b]:
   pc 0 = flag read pending, 1 = flag write, 2 = r[x-1] write,
   3 = r[x] read. Completion: 1 won the round, 0 lost. Caller zeroes
   both slots. *)

let[@inline] ge_resume m pid ~b ~rb ~l =
  let fr = m.M.frames and regs = m.M.regs in
  match uget fr b with
  | 0 ->
      if uget regs (rb + l + 1) = 1 then 0
      else begin
        uset fr b 1;
        -1
      end
  | 1 ->
      write_reg m (rb + l + 1) 1;
      let x = flip_geom m pid l in
      uset fr (b + 1) x;
      uset fr b 2;
      -1
  | 2 ->
      write_reg m (rb + uget fr (b + 1) - 1) 1;
      uset fr b 3;
      -1
  | _ -> if uget regs (rb + uget fr (b + 1)) = 0 then 1 else 0

(* Sifting round (lib/groupelect/ge_sift.ml). Single register [r].
   Frame: [pc] at [b]: 0 = write pending (heads), 1 = read pending
   (tails). The round {e starts} with a flip, so its start draws and
   sets the pc. Completion: 1 / 0. *)

let[@inline] sift_start m pid ~b ~threshold =
  let fr = m.M.frames in
  if flip m pid Groupelect.Ge_sift.resolution < threshold then uset fr b 0
  else uset fr b 1

let[@inline] sift_resume m ~b ~r =
  let fr = m.M.frames and regs = m.M.regs in
  if uget fr b = 0 then begin
    write_reg m r 1;
    1
  end
  else if uget regs r = 0 then 1
  else 0

(* PoisonPill round (lib/groupelect/ge_poison.ml). Registers:
   cells [cb .. cb + size - 1]. Frame: [pc; scan] at [b]:
   pc 0 = commit write pending (the coin is drawn right after it
   lands), 1 = poison write pending, 2 = scan read of cell [scan].
   Completion: 1 elected, 0 eliminated. Caller zeroes the pc slot. *)

let[@inline] poison_resume m pid ~b ~cb ~size ~threshold =
  let fr = m.M.frames and regs = m.M.regs in
  match uget fr b with
  | 0 ->
      write_reg m (cb + (pid mod size)) 1;
      if flip m pid Groupelect.Ge_sift.resolution < threshold then 1
      else begin
        uset fr b 1;
        -1
      end
  | 1 ->
      write_reg m (cb + (pid mod size)) 2;
      uset fr b 2;
      uset fr (b + 1) 0;
      -1
  | _ ->
      let i = uget fr (b + 1) in
      if uget regs (cb + i) = 1 then 0
      else if i + 1 >= size then 1
      else begin
        uset fr (b + 1) (i + 1);
        -1
      end

(* {1 Spines}

   The two compositions of lib/leaderelect: a tournament tree's duel
   climb and Theorem 2.3's chain. *)

(* Duel climb (lib/leaderelect/tournament.ml): from leaf [leaves + pid]
   to the root, dueling at heap node [v / 2] on port [v land 1].
   Registers: node d owns [du + 2d] (port 0) and [du + 2d + 1]. Frame:
   [v; le2.pc; le2.pos] at [b]. The climb finishes the process: 1 at
   the root, 0 on a lost duel. *)

let[@inline] climb_to m b v =
  let fr = m.M.frames in
  uset fr b v;
  uset fr (b + 1) 0;
  uset fr (b + 2) 0

let[@inline] climb_start m pid ~b ~leaves =
  let v = leaves + pid in
  if v = 1 then finish m pid 1 else climb_to m b v

let[@inline] climb_resume m pid ~b ~du =
  let v = uget m.M.frames b in
  let d2 = du + (2 * (v / 2)) and port = v land 1 in
  let r =
    le2_resume m pid ~b:(b + 1) ~mine:(d2 + port) ~other:(d2 + 1 - port)
  in
  if r >= 0 then
    if r = 0 then finish m pid 0
    else if v / 2 = 1 then finish m pid 1
    else climb_to m b (v / 2)

(* What a chain level's round is. The chain's one resume matches on it
   and calls [ge_resume] / [poison_resume] by name, so both bodies are
   inlined there: closure-mode ocamlopt would not inline a resume
   passed in as a function argument (it calls it through
   [caml_applyN]). *)
type round =
  | Ge of { l : int }
      (** Figure-1 rounds: level i's block of [l + 2] registers starts
          at [i * (l + 2)]. *)
  | Poison of { cb : int array; size : int array; threshold : int array }
      (** PoisonPill rounds: level i scans [size.(i)] cells from
          [cb.(i)] and goes high below [threshold.(i)]. *)

(* The chain (lib/leaderelect/chain.ml): per level a round, then a
   splitter; [rounds] real levels, then dummies that elect everyone
   with no operation. A process stopped at level s descends the duel
   ladder s, s - 1, .., 0, on port 0 at s and port 1 below. Registers
   mirror the constructors' allocation order: the round blocks
   ([round_regs]), then n splitters (race, door each), then n duels.
   Frame: [phase; level; stopped_at; child0; child1] — phase 0 round,
   1 splitter, 2 duel (level doubles as the duel index). *)
let chain ~name ~n ~rounds ~round_regs round =
  let du0 = round_regs + (2 * n) in
  let enter_splitter fr b level =
    uset fr b 1;
    uset fr (b + 1) level;
    uset fr (b + 3) 0
  in
  let enter fr b level =
    if level >= n then
      failwith "Chain.elect: ran out of levels (more participants than levels?)"
    else if level < rounds then begin
      uset fr b 0;
      uset fr (b + 1) level;
      uset fr (b + 3) 0;
      uset fr (b + 4) 0
    end
    else enter_splitter fr b level
  in
  let enter_duel fr b j =
    uset fr (b + 1) j;
    uset fr (b + 3) 0;
    uset fr (b + 4) 0
  in
  let p_start m pid = enter m.M.frames (pid * 5) 0 in
  let p_resume m pid =
    let b = pid * 5 in
    let fr = m.M.frames in
    let level = uget fr (b + 1) in
    match uget fr b with
    | 0 ->
        let r =
          match round with
          | Ge { l } -> ge_resume m pid ~b:(b + 3) ~rb:(level * (l + 2)) ~l
          | Poison p ->
              poison_resume m pid ~b:(b + 3) ~cb:p.cb.(level)
                ~size:p.size.(level) ~threshold:p.threshold.(level)
        in
        if r >= 0 then
          if r = 0 then finish m pid 0 else enter_splitter fr b level
    | 1 -> (
        let race = round_regs + (2 * level) in
        match splitter_resume m pid ~b:(b + 3) ~race ~door:(race + 1) with
        | -1 -> ()
        | 0 -> finish m pid 0 (* L: lost the level *)
        | 1 -> enter fr b (level + 1) (* R: move right *)
        | _ ->
            (* S: stopped here; descend the duel ladder on port 0 *)
            uset fr b 2;
            uset fr (b + 2) level;
            enter_duel fr b level)
    | _ ->
        let j = level in
        let port = if j = uget fr (b + 2) then 0 else 1 in
        let d2 = du0 + (2 * j) in
        let r =
          le2_resume m pid ~b:(b + 3) ~mine:(d2 + port) ~other:(d2 + 1 - port)
        in
        if r >= 0 then
          if r = 0 then finish m pid 0
          else if j = 0 then finish m pid 1
          else enter_duel fr b (j - 1)
  in
  { M.p_name = name; p_regs = du0 + (2 * n); p_frame = 5; p_start; p_resume }

(* {1 Compiled elections} *)

(* Tournament tree (lib/leaderelect/tournament.ml): the climb alone. *)
let tournament ~n =
  if n < 1 then invalid_arg "Programs.tournament: n must be >= 1";
  let leaves = Leaderelect.Tournament.leaves ~n in
  {
    M.p_name = "tournament";
    p_regs = 2 * leaves;
    p_frame = 3;
    p_start = (fun m pid -> climb_start m pid ~b:(pid * 3) ~leaves);
    p_resume = (fun m pid -> climb_resume m pid ~b:(pid * 3) ~du:0);
  }

(* log* (lib/leaderelect/le_logstar.ml): the chain over Figure-1 rounds
   on its first [Le_logstar.default_cutoff] levels. *)
let logstar ~n =
  if n < 1 then invalid_arg "Programs.logstar: n must be >= 1";
  let l = Groupelect.Ge_logstar.level n in
  let rounds = Leaderelect.Le_logstar.default_cutoff ~n in
  chain ~name:"log*" ~n ~rounds ~round_regs:(rounds * (l + 2)) (Ge { l })

(* PoisonPill (lib/leaderelect/poison_le.ml): the chain over the poison
   schedule's rounds, their cell blocks laid out back to back. *)
let poison ~n =
  if n < 1 then invalid_arg "Programs.poison: n must be >= 1";
  let sched = Groupelect.Ge_poison.schedule ~n in
  let rounds = min (Array.length sched) n in
  let size = Array.init rounds (fun i -> snd sched.(i)) in
  let threshold =
    Array.init rounds (fun i -> Groupelect.Ge_sift.threshold (fst sched.(i)))
  in
  let cb = Array.make (rounds + 1) 0 in
  for i = 0 to rounds - 1 do
    cb.(i + 1) <- cb.(i) + size.(i)
  done;
  chain ~name:"poison" ~n ~rounds ~round_regs:cb.(rounds)
    (Poison { cb; size; threshold })

(* Sifting election (lib/leaderelect/sift_le.ml): the probability
   schedule's sifting levels, then the climb. Registers: level i sifts
   on register i, the climb's duels follow. Frame: [phase; level;
   sift.pc; _] while sifting (phase 0), [phase; climb frame] after. *)
let sift ~n =
  if n < 1 then invalid_arg "Programs.sift: n must be >= 1";
  let threshold =
    Array.map Groupelect.Ge_sift.threshold
      (Groupelect.Ge_sift.probability_schedule ~n)
  in
  let nlev = Array.length threshold in
  let leaves = Leaderelect.Tournament.leaves ~n in
  let enter m pid b i =
    let fr = m.M.frames in
    if i < nlev then begin
      uset fr b 0;
      uset fr (b + 1) i;
      sift_start m pid ~b:(b + 2) ~threshold:threshold.(i)
    end
    else begin
      uset fr b 1;
      climb_start m pid ~b:(b + 1) ~leaves
    end
  in
  let p_start m pid = enter m pid (pid * 4) 0 in
  let p_resume m pid =
    let b = pid * 4 in
    if uget m.M.frames b = 0 then begin
      let i = uget m.M.frames (b + 1) in
      if sift_resume m ~b:(b + 2) ~r:i = 0 then finish m pid 0
      else enter m pid b (i + 1)
    end
    else climb_resume m pid ~b:(b + 1) ~du:nlev
  in
  {
    M.p_name = "sift";
    p_regs = nlev + (2 * leaves);
    p_frame = 4;
    p_start;
    p_resume;
  }
