type report = {
  rounds : int;
  final_reps : int;
  final_covered : int;
  max_cover : int;
  finished_early : int;
  anomalies : int;
}

(* Union-find over pids. *)
module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find (t : int array) i = if t.(i) = i then i else find t t.(i)

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then if ra < rb then t.(rb) <- ra else t.(ra) <- rb
end

let run ?(target_cover = 4) ?(max_rounds = 1_000_000) ~make ~n ~seed () =
  let mem = Sim.Memory.create () in
  let le = make mem ~n in
  (* Fixed nondeterminism: a deterministic per-process coin stream.
     Streams 0 and 1 of the run seed belong to the scheduler and the
     adversary, so process coins start at stream 2. *)
  let streams =
    Array.init n (fun pid ->
        Sim.Rng.create (Sim.Rng.derive seed ~stream:(pid + 2)))
  in
  let oracle ~pid ~bound =
    if bound < 0 then Some (Sim.Rng.geometric_capped streams.(pid) (-bound))
    else Some (Sim.Rng.int streams.(pid) bound)
  in
  let sched =
    Sim.Sched.create ~flip_oracle:oracle (Leaderelect.Le.programs le ~k:n)
  in
  let uf = Uf.create n in
  (* One step of [pid], updating group structure from what it saw. *)
  let step pid =
    (match Sim.Sched.pending sched pid with
    | Some { Sim.Op.kind = Sim.Op.Read; reg } ->
        let w = reg.Sim.Register.last_writer in
        if w >= 0 && w <> pid then Uf.union uf pid w
    | _ -> ());
    Sim.Sched.step sched pid
  in
  (* Base case: drive every process to its first pending write. *)
  let rec to_cover pid =
    match Sim.Sched.pending sched pid with
    | Some { Sim.Op.kind = Sim.Op.Read; _ } ->
        step pid;
        to_cover pid
    | Some { Sim.Op.kind = Sim.Op.Write _; _ } | None -> ()
  in
  for pid = 0 to n - 1 do
    to_cover pid
  done;
  (* Representatives: one covering process per group. *)
  let covering pid =
    match Sim.Sched.pending sched pid with
    | Some { Sim.Op.kind = Sim.Op.Write _; reg } -> Some reg.Sim.Register.id
    | _ -> None
  in
  let reps = ref [] in
  let () =
    let seen_groups = Hashtbl.create 64 in
    for pid = 0 to n - 1 do
      if covering pid <> None then begin
        let g = Uf.find uf pid in
        if not (Hashtbl.mem seen_groups g) then begin
          Hashtbl.add seen_groups g ();
          reps := pid :: !reps
        end
      end
    done
  in
  let anomalies = ref 0 in
  let cover_counts () =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun pid ->
        match covering pid with
        | Some reg ->
            Hashtbl.replace tbl reg
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl reg))
        | None -> ())
      !reps;
    tbl
  in
  (* Run the members of the merged group, round-robin, until one is
     poised to write outside [banned]; return it, or None if the whole
     group retired. *)
  let run_group_until_outside members banned =
    let in_banned reg = List.mem reg banned in
    let rec loop guard =
      if guard > 10_000_000 then failwith "Covering_exec: group ran too long";
      let poised =
        List.find_opt
          (fun pid ->
            match covering pid with
            | Some reg -> not (in_banned reg)
            | None -> false)
          (members ())
      in
      match poised with
      | Some pid -> Some pid
      | None ->
          (* Step any runnable member (performing banned writes and reads
             as needed). *)
          let runnable =
            List.filter
              (fun pid -> Sim.Sched.status sched pid = Sim.Sched.Running)
              (members ())
          in
          (match runnable with
          | [] -> None
          | pid :: _ ->
              step pid;
              loop (guard + 1))
    in
    loop 0
  in
  let round_no = ref 0 in
  let continue_ = ref true in
  while !continue_ && !round_no < max_rounds do
    let counts = cover_counts () in
    let m = Hashtbl.fold (fun _ c acc -> max acc c) counts 0 in
    if m <= target_cover || List.length !reps <= 1 then continue_ := false
    else begin
      incr round_no;
      let r_regs =
        Hashtbl.fold (fun reg c acc -> if c = m then reg :: acc else acc) counts []
      in
      let r'_regs =
        Hashtbl.fold
          (fun reg c acc -> if c = m - 1 then reg :: acc else acc)
          counts []
      in
      let banned = r_regs @ r'_regs in
      (* One covering representative per register of R. *)
      let chosen =
        List.filter_map
          (fun reg ->
            List.find_opt (fun pid -> covering pid = Some reg) !reps)
          r_regs
      in
      (* Their groups together form Q; merge them up front (the proof
         treats Q as one set from here on). *)
      (match chosen with
      | first :: rest -> List.iter (fun pid -> Uf.union uf first pid) rest
      | [] -> ());
      let group_of pid = Uf.find uf pid in
      let q_group () =
        match chosen with
        | [] -> []
        | first :: _ ->
            let g = group_of first in
            List.filter (fun pid -> group_of pid = g) (List.init n Fun.id)
      in
      (* Each chosen representative performs its (overwriting) write. *)
      List.iter
        (fun pid ->
          if Sim.Sched.status sched pid = Sim.Sched.Running then step pid)
        chosen;
      (* Run Q until someone covers outside R and R'. *)
      let new_rep = run_group_until_outside q_group banned in
      let removed = chosen in
      reps := List.filter (fun pid -> not (List.mem pid removed)) !reps;
      (match new_rep with
      | Some pid -> reps := pid :: !reps
      | None -> incr anomalies);
      (* Retire representatives whose process finished meanwhile. *)
      reps := List.filter (fun pid -> covering pid <> None) !reps
    end
  done;
  let counts = cover_counts () in
  let finished =
    let c = ref 0 in
    for pid = 0 to n - 1 do
      if Sim.Sched.status sched pid <> Sim.Sched.Running then incr c
    done;
    !c
  in
  {
    rounds = !round_no;
    final_reps = List.length !reps;
    final_covered = Hashtbl.length counts;
    max_cover = Hashtbl.fold (fun _ c acc -> max acc c) counts 0;
    finished_early = finished;
    anomalies = !anomalies;
  }
