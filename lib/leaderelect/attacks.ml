let register_index name =
  match (String.rindex_opt name '[', String.rindex_opt name ']') with
  | Some i, Some j when j > i + 1 ->
      int_of_string_opt (String.sub name (i + 1) (j - i - 1))
  | _ -> None

let contains_at name sub i =
  i >= 0
  && i + String.length sub <= String.length name
  && String.sub name i (String.length sub) = sub

let find_sub name sub =
  let n = String.length name and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if contains_at name sub i then Some i
    else go (i + 1)
  in
  go 0

(* Parse "<prefix>.ge[<level>].R[<x>]" / "<prefix>.ge[<level>].flag". *)
let parse_ge name =
  match find_sub name ".ge[" with
  | None -> None
  | Some i -> (
      let rest = String.sub name (i + 4) (String.length name - i - 4) in
      match String.index_opt rest ']' with
      | None -> None
      | Some j -> (
          match int_of_string_opt (String.sub rest 0 j) with
          | None -> None
          | Some level ->
              let suffix = String.sub rest j (String.length rest - j) in
              if find_sub suffix ".R[" <> None then
                match register_index suffix with
                | Some x -> Some (level, `Cell x)
                | None -> None
              else if find_sub suffix ".flag" <> None then Some (level, `Flag)
              else None))

let parse_level_of sub name =
  match find_sub name sub with
  | None -> None
  | Some i -> (
      let rest =
        String.sub name
          (i + String.length sub)
          (String.length name - i - String.length sub)
      in
      match String.index_opt rest ']' with
      | None -> None
      | Some j -> int_of_string_opt (String.sub rest 0 j))

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
  let has_suffix name suf = find_sub name suf <> None in
  let score (p : Sim.Sched.pending_view) =
    match p.Sim.Sched.view_reg_name with
    | None -> max_int
    | Some name -> (
        let pid = p.Sim.Sched.view_pid in
        let is_read family_tbl level ~first_is_read =
          if see_kind then p.Sim.Sched.view_kind = Some `Read
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
                if has_suffix name ".race" then
                  if is_read race_grants level ~first_is_read:false then
                    base + 3
                  else base + 0
                else if has_suffix name ".door" then
                  if is_read door_grants level ~first_is_read:true then
                    base + 1
                  else base + 2
                else base + 4
            | None -> max_int - 1))
  in
  let decide (view : Sim.Sched.view) =
    let r = view.Sim.Sched.runnable in
    match Sim.Running.length r with
    | 0 -> Sim.Sched.Halt
    | m ->
        let best = ref None in
        for i = 0 to m - 1 do
          let pid = Sim.Running.get r i in
          let s = score (view.Sim.Sched.pending_of pid) in
          match !best with
          | Some (s', _) when s' <= s -> ()
          | _ -> best := Some (s, pid)
        done;
        let pid =
          match !best with Some (_, pid) -> pid | None -> Sim.Running.get r 0
        in
        (* Update grant bookkeeping for the chosen process. *)
        (match (view.Sim.Sched.pending_of pid).Sim.Sched.view_reg_name with
        | Some rname -> (
            match parse_ge rname with
            | Some (level, `Flag) -> bump flag_grants (pid, level)
            | Some (level, `Cell _) -> bump cell_grants (pid, level)
            | None -> (
                match parse_level_of ".sp[" rname with
                | Some level ->
                    if has_suffix rname ".race" then bump race_grants (pid, level)
                    else if has_suffix rname ".door" then bump door_grants (pid, level)
                | None -> ()))
        | None -> ());
        Sim.Sched.Schedule pid
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
      | 0 -> Sim.Sched.Halt
      | m ->
          let reads =
            List.init m (Sim.Running.get r)
            |> List.filter (fun pid ->
                   (view.Sim.Sched.pending_of pid).Sim.Sched.view_kind
                   = Some `Read)
          in
          incr rr;
          (match reads with
          | [] -> Sim.Sched.Schedule (Sim.Running.get r (!rr mod m))
          | _ ->
              let n = List.length reads in
              Sim.Sched.Schedule (List.nth reads (!rr mod n))))
