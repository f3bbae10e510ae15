let register_index name =
  match (String.rindex_opt name '[', String.rindex_opt name ']') with
  | Some i, Some j when j > i + 1 ->
      int_of_string_opt (String.sub name (i + 1) (j - i - 1))
  | _ -> None

let rec matches name sub i j =
  j = String.length sub || (name.[i + j] = sub.[j] && matches name sub i (j + 1))

(* The index just past the first [sub] in [name] at or after [i], or
   -1; top-level and compared in place, so a search allocates nothing. *)
let rec find name sub i =
  if i + String.length sub > String.length name then -1
  else if matches name sub i 0 then i + String.length sub
  else find name sub (i + 1)

let has sub name = find name sub 0 >= 0

(* The level of "<sub><level>]...". *)
let parse_level_of sub name =
  let i = find name sub 0 in
  match if i < 0 then None else String.index_from_opt name i ']' with
  | Some j -> int_of_string_opt (String.sub name i (j - i))
  | None -> None

(* Parse "<prefix>.ge[<level>].R[<x>]" / "<prefix>.ge[<level>].flag". *)
let parse_ge name =
  match parse_level_of ".ge[" name with
  | None -> None
  | Some level -> (
      let i = find name ".ge[" 0 in
      if find name ".R[" i >= 0 then
        match register_index name with
        | Some x -> Some (level, `Cell x)
        | None -> None
      else if find name ".flag" i >= 0 then Some (level, `Flag)
      else None)

(* The paper's attack on the Figure 1 chain (Section 4's motivation).

   Per level, in order: every process reads the flag (so nobody is
   filtered by the doorway), then the flag writes, then the array
   operations in ascending cell order with each cell's read scheduled
   before that cell's write — so no process ever observes R[x+1] set,
   and the whole group is elected. The splitter then eliminates only
   one process per level: Theta(k) levels.

   [see_kind] distinguishes the adaptive/location-aware variant (pending
   operation kinds visible) from the R/W-oblivious variant, which must
   infer read-vs-write from how many steps it has granted a process on
   the current register family (flag: first grant is the read; array
   cells: a process's first array operation is its write, the second its
   read). *)
let chain_attack ~name ~klass ~see_kind =
  (* Own bookkeeping, legal for any adversary class: how many steps we
     have granted each pid while it was pending on a ge flag / cell of a
     given level. *)
  let flag_grants : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let cell_grants : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let race_grants : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let door_grants : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let grants tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  let bump tbl key = Hashtbl.replace tbl key (1 + grants tbl key) in
  let score view pid =
    match Sim.Sched.seen_reg_name view pid with
    | "" -> max_int
    | name -> (
        let is_read family_tbl level ~first_is_read =
          if see_kind then Sim.Sched.seen_kind view pid = Sim.Sched.kind_read
          else if first_is_read then grants family_tbl (pid, level) = 0
          else grants family_tbl (pid, level) = 1
        in
        match parse_ge name with
        | Some (level, `Flag) ->
            (level * 1_000_000)
            + if is_read flag_grants level ~first_is_read:true then 0 else 1
        | Some (level, `Cell x) ->
            (level * 1_000_000) + 10 + (4 * x)
            + if is_read cell_grants level ~first_is_read:false then 0 else 1
        | None -> (
            (* Splitter of the same level: all race writes, then all door
               reads (everyone passes the open door), then door writes,
               then race re-reads — so that k-1 processes get R and
               survive to the next level. *)
            match parse_level_of ".sp[" name with
            | Some level ->
                let base = (level * 1_000_000) + 900_000 in
                if has ".race" name then
                  if is_read race_grants level ~first_is_read:false then
                    base + 3
                  else base + 0
                else if has ".door" name then
                  if is_read door_grants level ~first_is_read:true then
                    base + 1
                  else base + 2
                else base + 4
            | None -> max_int - 1))
  in
  let decide (view : Sim.Sched.view) =
    let r = view.Sim.Sched.runnable in
    match Sim.Running.length r with
    | 0 -> Sim.Sched.halt
    | m ->
        (* The first lowest-scoring pid. *)
        let best = ref (Sim.Running.get r 0) in
        let best_score = ref (score view !best) in
        for i = 1 to m - 1 do
          let pid = Sim.Running.get r i in
          let s = score view pid in
          if s < !best_score then begin
            best := pid;
            best_score := s
          end
        done;
        let pid = !best in
        (* Update grant bookkeeping for the chosen process. *)
        let rname = Sim.Sched.seen_reg_name view pid in
        (match parse_ge rname with
        | Some (level, `Flag) -> bump flag_grants (pid, level)
        | Some (level, `Cell _) -> bump cell_grants (pid, level)
        | None -> (
            match parse_level_of ".sp[" rname with
            | Some level ->
                if has ".race" rname then bump race_grants (pid, level)
                else if has ".door" rname then bump door_grants (pid, level)
            | None -> ()));
        pid
  in
  { Sim.Sched.adv_name = name; adv_klass = klass; decide }

let ascending_location () =
  chain_attack ~name:"ascending-location" ~klass:Sim.Sched.Adaptive
    ~see_kind:true

let ascending_location_rw () =
  chain_attack ~name:"ascending-location-rw" ~klass:Sim.Sched.Rw_oblivious
    ~see_kind:false

let read_priority () =
  let rr = ref 0 in
  Sim.Adversary.location_oblivious "read-priority" (fun view ->
      let r = view.Sim.Sched.runnable in
      match Sim.Running.length r with
      | 0 -> Sim.Sched.halt
      | m -> (
          let reads =
            List.init m (Sim.Running.get r)
            |> List.filter (fun pid ->
                   Sim.Sched.seen_kind view pid = Sim.Sched.kind_read)
          in
          incr rr;
          match reads with
          | [] -> Sim.Running.get r (!rr mod m)
          | _ -> List.nth reads (!rr mod List.length reads)))
