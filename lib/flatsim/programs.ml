(* Elections hand-compiled to flat {!Machine.program}s.

   Each compiled program replicates its effect-handler source
   operation-for-operation and flip-for-flip — same shared-memory ops in
   the same order, same inline coin flips between them — so a flat run
   is bit-identical to the effect path under any matching schedule
   (winner, per-process results, flip stream; pinned by test_flatsim).
   Sources of truth: lib/primitives/{le2,splitter,tas}.ml,
   lib/groupelect/{ge_logstar,ge_sift}.ml,
   lib/leaderelect/{tournament,chain,le_logstar,sift_le}.ml.

   Compilation model (DESIGN.md §13): each election is a set of
   sub-machines (duel, splitter, GroupElect round) with a fixed frame
   layout; a sub-machine's pc slot names its {e pending} shared-memory
   operation, and its [*_resume] — one call per scheduled step —
   executes that operation against the register file, runs local code
   (branches, flips), leaves the pc naming the next operation, and
   returns -1 while more operations remain or a completion code once
   done. The parent dispatches on a phase slot. Sub-machines that are
   never simultaneously active share frame slots. Registers are dense
   indices into the machine's register file; layouts below mirror the
   allocation order of the effect-path constructors (the indices
   themselves never need to match — only observable outcomes do).

   Everything here is hot-path: frame and register accesses are
   unchecked (see the contract note in machine.ml) — indices come from
   the fixed layouts, sized by [p_regs]/[p_frame] at [Machine.create]
   and pinned by the differential suite. *)

module M = Machine

let uget = Array.unsafe_get
let uset = Array.unsafe_set

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
    M.write_reg m mine (uget fr (b + 1));
    uset fr b 0;
    -1
  end
  else begin
    let o = uget regs other in
    let pos = uget fr (b + 1) in
    if o >= pos + 2 then 0
    else if o <= pos - 3 then 1
    else if M.flip m pid 2 = 1 then begin
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
      M.write_reg m race (pid + 1);
      uset fr b 1;
      -1
  | 1 ->
      if uget regs door = 1 then 0
      else begin
        uset fr b 2;
        -1
      end
  | 2 ->
      M.write_reg m door 1;
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
      M.write_reg m (rb + l + 1) 1;
      let x = M.flip_geom m pid l in
      uset fr (b + 1) x;
      uset fr b 2;
      -1
  | 2 ->
      M.write_reg m (rb + uget fr (b + 1) - 1) 1;
      uset fr b 3;
      -1
  | _ -> if uget regs (rb + uget fr (b + 1)) = 0 then 1 else 0

(* Sifting round (lib/groupelect/ge_sift.ml). Single register [r].
   Frame: [pc] at [b]: 0 = write pending (heads), 1 = read pending
   (tails). The round {e starts} with a flip, so its start draws and
   sets the pc. Completion: 1 / 0. *)

let[@inline] sift_start m pid ~b ~threshold =
  let fr = m.M.frames in
  if M.flip m pid Groupelect.Ge_sift.resolution < threshold then uset fr b 0
  else uset fr b 1

let[@inline] sift_resume m ~b ~r =
  let fr = m.M.frames and regs = m.M.regs in
  if uget fr b = 0 then begin
    M.write_reg m r 1;
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
      M.write_reg m (cb + (pid mod size)) 1;
      if M.flip m pid Groupelect.Ge_sift.resolution < threshold then 1
      else begin
        uset fr b 1;
        -1
      end
  | 1 ->
      M.write_reg m (cb + (pid mod size)) 2;
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

(* {1 Compiled elections} *)

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

(* Tournament tree (lib/leaderelect/tournament.ml): pid climbs from
   leaf [leaves + pid], dueling at node v/2 on port [v land 1].
   Registers: duel node d owns [2d] (port-0 position) and [2d + 1].
   Frame: [v; le2.pc; le2.pos]. Result 1 = elected. *)
let tournament ~n =
  if n < 1 then invalid_arg "Programs.tournament: n must be >= 1";
  let leaves = pow2_at_least n in
  let start_duel m b v =
    let fr = m.M.frames in
    uset fr b v;
    uset fr (b + 1) 0;
    uset fr (b + 2) 0
  in
  let p_start m pid =
    let v = leaves + pid in
    if v = 1 then M.finish m pid 1 else start_duel m (pid * 3) v
  in
  let p_resume m pid =
    let b = pid * 3 in
    let v = uget m.M.frames b in
    let d2 = 2 * (v / 2) and port = v land 1 in
    let r = le2_resume m pid ~b:(b + 1) ~mine:(d2 + port) ~other:(d2 + 1 - port) in
    if r >= 0 then
      if r = 0 then M.finish m pid 0
      else
        let v' = v / 2 in
        if v' = 1 then M.finish m pid 1 else start_duel m b v'
  in
  let p_start_all =
    (* leaves = 1 means pid 0 finishes at its entry point — keep the
       general path for that edge. *)
    if leaves = 1 then None
    else
      Some
        (fun m procs ->
          let fr = m.M.frames in
          for pid = 0 to procs - 1 do
            let b = pid * 3 in
            uset fr b (leaves + pid);
            uset fr (b + 1) 0;
            uset fr (b + 2) 0
          done)
  in
  {
    M.p_name = "tournament";
    p_regs = 2 * leaves;
    p_frame = 3;
    p_start;
    p_resume;
    p_start_all;
  }

(* log* chain (lib/leaderelect/{le_logstar,chain}.ml): [cutoff] real
   Figure-1 GroupElect levels then dummies, a splitter per level going
   forward, a duel per level going backward. Register layout mirrors
   the constructors' allocation order: the GE blocks (cutoff blocks of
   l + 2), then the n splitters (race, door each), then the n duels.
   Frame: [phase; level; stopped_at; child0; child1] — phase 0 forward
   GE, 1 forward splitter, 2 backward duel (level doubles as j). *)
let logstar ~n =
  if n < 1 then invalid_arg "Programs.logstar: n must be >= 1";
  let l = Groupelect.Ge_logstar.level n in
  let cutoff = min n (3 * ceil_log2 n) in
  let sp0 = cutoff * (l + 2) in
  let du0 = sp0 + (2 * n) in
  let start_splitter m b level =
    let fr = m.M.frames in
    uset fr b 1;
    uset fr (b + 1) level;
    uset fr (b + 3) 0
  in
  let start_level m b level =
    if level >= n then
      failwith "Chain.elect: ran out of levels (more participants than levels?)"
    else if level < cutoff then begin
      let fr = m.M.frames in
      uset fr b 0;
      uset fr (b + 1) level;
      uset fr (b + 3) 0;
      uset fr (b + 4) 0
    end
    else
      (* dummy GroupElect: everyone wins it with no operations *)
      start_splitter m b level
  in
  let start_duel m b j =
    let fr = m.M.frames in
    uset fr (b + 1) j;
    uset fr (b + 3) 0;
    uset fr (b + 4) 0
  in
  let p_start m pid = start_level m (pid * 5) 0 in
  let p_resume m pid =
    let b = pid * 5 in
    let fr = m.M.frames in
    let level = uget fr (b + 1) in
    match uget fr b with
    | 0 ->
        let r = ge_resume m pid ~b:(b + 3) ~rb:(level * (l + 2)) ~l in
        if r >= 0 then
          if r = 0 then M.finish m pid 0 else start_splitter m b level
    | 1 -> (
        let r =
          splitter_resume m pid ~b:(b + 3)
            ~race:(sp0 + (2 * level))
            ~door:(sp0 + (2 * level) + 1)
        in
        match r with
        | -1 -> ()
        | 0 -> M.finish m pid 0 (* L: lost the level *)
        | 1 -> start_level m b (level + 1) (* R: move right *)
        | _ ->
            (* S: stopped here; descend the duel ladder on port 0 *)
            uset fr b 2;
            uset fr (b + 2) level;
            start_duel m b level)
    | _ ->
        let j = level in
        let port = if j = uget fr (b + 2) then 0 else 1 in
        let d2 = du0 + (2 * j) in
        let r = le2_resume m pid ~b:(b + 3) ~mine:(d2 + port) ~other:(d2 + 1 - port) in
        if r >= 0 then
          if r = 0 then M.finish m pid 0
          else if j = 0 then M.finish m pid 1
          else start_duel m b (j - 1)
  in
  let p_start_all =
    (* start_level at level 0, unrolled: 0 < cutoff always (cutoff >= 1),
       so the entry is the 4-slot real-GE frame fill. *)
    Some
      (fun m procs ->
        let fr = m.M.frames in
        for pid = 0 to procs - 1 do
          let b = pid * 5 in
          uset fr b 0;
          uset fr (b + 1) 0;
          uset fr (b + 3) 0;
          uset fr (b + 4) 0
        done)
  in
  {
    M.p_name = "log*";
    p_regs = sp0 + (4 * n);
    p_frame = 5;
    p_start;
    p_resume;
    p_start_all;
  }

(* PoisonPill chain (lib/leaderelect/poison_le.ml): the poison
   schedule's rounds as the chain's first levels, then dummies; a
   splitter per level forward, a duel per level backward. Register
   layout mirrors the constructors' allocation order: the poison cell
   blocks, then the n splitters (race, door each), then the n duels.
   Frame: [phase; level; stopped_at; child0; child1] — phase 0 poison
   round, 1 forward splitter, 2 backward duel (level doubles as j). *)
let poison ~n =
  if n < 1 then invalid_arg "Programs.poison: n must be >= 1";
  let sched = Groupelect.Ge_poison.schedule ~n in
  let plen = min (Array.length sched) n in
  let sizes = Array.init plen (fun i -> snd sched.(i)) in
  let thresholds =
    Array.init plen (fun i ->
        max 1
          (int_of_float
             (fst sched.(i) *. float_of_int Groupelect.Ge_sift.resolution)))
  in
  let cb = Array.make (plen + 1) 0 in
  for i = 0 to plen - 1 do
    cb.(i + 1) <- cb.(i) + sizes.(i)
  done;
  let sp0 = cb.(plen) in
  let du0 = sp0 + (2 * n) in
  let start_splitter m b level =
    let fr = m.M.frames in
    uset fr b 1;
    uset fr (b + 1) level;
    uset fr (b + 3) 0
  in
  let start_level m b level =
    if level >= n then
      failwith "Chain.elect: ran out of levels (more participants than levels?)"
    else if level < plen then begin
      let fr = m.M.frames in
      uset fr b 0;
      uset fr (b + 1) level;
      uset fr (b + 3) 0
    end
    else
      (* dummy GroupElect: everyone wins it with no operations *)
      start_splitter m b level
  in
  let start_duel m b j =
    let fr = m.M.frames in
    uset fr (b + 1) j;
    uset fr (b + 3) 0;
    uset fr (b + 4) 0
  in
  let p_start m pid = start_level m (pid * 5) 0 in
  let p_resume m pid =
    let b = pid * 5 in
    let fr = m.M.frames in
    let level = uget fr (b + 1) in
    match uget fr b with
    | 0 ->
        let r =
          poison_resume m pid ~b:(b + 3) ~cb:cb.(level) ~size:sizes.(level)
            ~threshold:thresholds.(level)
        in
        if r >= 0 then
          if r = 0 then M.finish m pid 0 else start_splitter m b level
    | 1 -> (
        let r =
          splitter_resume m pid ~b:(b + 3)
            ~race:(sp0 + (2 * level))
            ~door:(sp0 + (2 * level) + 1)
        in
        match r with
        | -1 -> ()
        | 0 -> M.finish m pid 0 (* L: lost the level *)
        | 1 -> start_level m b (level + 1) (* R: move right *)
        | _ ->
            (* S: stopped here; descend the duel ladder on port 0 *)
            uset fr b 2;
            uset fr (b + 2) level;
            start_duel m b level)
    | _ ->
        let j = level in
        let port = if j = uget fr (b + 2) then 0 else 1 in
        let d2 = du0 + (2 * j) in
        let r =
          le2_resume m pid ~b:(b + 3) ~mine:(d2 + port) ~other:(d2 + 1 - port)
        in
        if r >= 0 then
          if r = 0 then M.finish m pid 0
          else if j = 0 then M.finish m pid 1
          else start_duel m b (j - 1)
  in
  let p_start_all =
    (* start_level at level 0, unrolled. Level 0 is a poison round
       whenever plen >= 1 (every n >= 2); n = 1 starts at the splitter.
       Neither entry flips or finishes, so both batch cleanly. *)
    Some
      (fun m procs ->
        let fr = m.M.frames in
        let phase0 = if plen >= 1 then 0 else 1 in
        for pid = 0 to procs - 1 do
          let b = pid * 5 in
          uset fr b phase0;
          uset fr (b + 1) 0;
          uset fr (b + 3) 0
        done)
  in
  {
    M.p_name = "poison";
    p_regs = sp0 + (4 * n);
    p_frame = 5;
    p_start;
    p_resume;
    p_start_all;
  }

(* Sifting election (lib/leaderelect/sift_le.ml): the probability
   schedule's sifting levels, then a tournament finisher. Registers:
   one per sifting level (level i duels on register i), then the
   finisher's duels. Frame: [phase; level-or-v; child0; child1]. *)
let sift ~n =
  if n < 1 then invalid_arg "Programs.sift: n must be >= 1";
  let probs = Groupelect.Ge_sift.probability_schedule ~n in
  let nlev = Array.length probs in
  let thresholds =
    Array.map
      (fun p ->
        max 1 (int_of_float (p *. float_of_int Groupelect.Ge_sift.resolution)))
      probs
  in
  let leaves = pow2_at_least n in
  let start_sift m pid b i =
    let fr = m.M.frames in
    uset fr b 0;
    uset fr (b + 1) i;
    sift_start m pid ~b:(b + 2) ~threshold:thresholds.(i)
  in
  let start_duel m b v =
    let fr = m.M.frames in
    uset fr (b + 1) v;
    uset fr (b + 2) 0;
    uset fr (b + 3) 0
  in
  let start_tournament m pid b =
    let v = leaves + pid in
    if v = 1 then M.finish m pid 1
    else begin
      m.M.frames.(b) <- 1;
      start_duel m b v
    end
  in
  let p_start m pid =
    let b = pid * 4 in
    if nlev = 0 then start_tournament m pid b else start_sift m pid b 0
  in
  let p_resume m pid =
    let b = pid * 4 in
    let fr = m.M.frames in
    if uget fr b = 0 then begin
      let i = uget fr (b + 1) in
      let r = sift_resume m ~b:(b + 2) ~r:i in
      if r = 0 then M.finish m pid 0
      else
        let i = i + 1 in
        if i >= nlev then start_tournament m pid b else start_sift m pid b i
    end
    else begin
      let v = uget fr (b + 1) in
      let d2 = nlev + (2 * (v / 2)) and port = v land 1 in
      let r =
        le2_resume m pid ~b:(b + 2) ~mine:(d2 + port) ~other:(d2 + 1 - port)
      in
      if r >= 0 then
        if r = 0 then M.finish m pid 0
        else
          let v' = v / 2 in
          if v' = 1 then M.finish m pid 1 else start_duel m b v'
    end
  in
  let p_start_all =
    (* The entry flips (sift_start draws the level-0 coin), so the
       batch is a pid-ordered loop over the same start — still one
       indirect call per reset. nlev = 0 starts in the tournament,
       whose leaves = 1 edge can finish at entry: fall back. *)
    if nlev = 0 then None
    else Some (fun m procs ->
        for pid = 0 to procs - 1 do
          start_sift m pid (pid * 4) 0
        done)
  in
  {
    M.p_name = "sift";
    p_regs = nlev + (2 * leaves);
    p_frame = 4;
    p_start;
    p_resume;
    p_start_all;
  }

(* The 2-process TAS base (lib/primitives/{tas,le2}.ml, the E8
   [tas_pair] wiring: doorway test-and-exit around a duel on port =
   pid). Registers: duel positions [0; 1], doorway [2]. Frame:
   [pc; le2.pc; le2.pos] — pc 0 = doorway read pending, 1 = inside the
   duel, 2 = doorway write pending. Result 0 = won the TAS, 1 = lost —
   [Tas.apply]'s encoding. *)
let tas2 =
  let p_start m pid = m.M.frames.(pid * 3) <- 0 in
  let p_resume m pid =
    let b = pid * 3 in
    let fr = m.M.frames in
    match uget fr b with
    | 0 ->
        if uget m.M.regs 2 = 1 then M.finish m pid 1
        else begin
          uset fr b 1;
          uset fr (b + 1) 0;
          uset fr (b + 2) 0
        end
    | 1 ->
        let r = le2_resume m pid ~b:(b + 1) ~mine:pid ~other:(1 - pid) in
        if r >= 0 then
          if r = 1 then M.finish m pid 0 else uset fr b 2
    | _ ->
        M.write_reg m 2 1;
        M.finish m pid 1
  in
  let p_start_all =
    Some
      (fun m procs ->
        let fr = m.M.frames in
        for pid = 0 to procs - 1 do
          uset fr (pid * 3) 0
        done)
  in
  { M.p_name = "tas2"; p_regs = 3; p_frame = 3; p_start; p_resume; p_start_all }
