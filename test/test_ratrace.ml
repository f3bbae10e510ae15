(* Tests for elimination paths, the primary tree, the backup grid and
   both RatRace variants (Section 3). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Elimination path} *)

let ep_programs ~length k () =
  let mem = Sim.Memory.create () in
  let ep = Ratrace.Elim_path.create mem ~length in
  Array.init k (fun _ ctx ->
      match Ratrace.Elim_path.run ep ctx with
      | Ratrace.Elim_path.Lost -> 0
      | Ratrace.Elim_path.Won -> 1
      | Ratrace.Elim_path.Fell_off -> 2)

let test_ep_solo_wins () =
  let sched = Sim.Sched.create (ep_programs ~length:4 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo wins" 1 (Option.get (Sim.Sched.result sched 0))

let test_ep_claim_3_1 () =
  (* Claim 3.1: at most [length] entrants => nobody falls off; and at
     most one winner, exactly one when crash-free. *)
  List.iter
    (fun (length, k) ->
      for seed = 1 to 100 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) (ep_programs ~length k ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
        let results = Array.map Option.get (Sim.Sched.results sched) in
        let count v = Array.fold_left (fun a r -> if r = v then a + 1 else a) 0 results in
        checki "nobody falls off" 0 (count 2);
        checki "exactly one winner" 1 (count 1)
      done)
    [ (1, 1); (2, 2); (4, 4); (8, 8); (8, 3); (16, 16) ]

let test_ep_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:10 ~programs:(ep_programs ~length:2 2)
      ~check:(fun sched ->
        let winners =
          Array.fold_left
            (fun a r -> if r = Some 1 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        if winners > 1 then Alcotest.fail "two path winners";
        if
          Array.for_all Option.is_some (Sim.Sched.results sched)
          && winners <> 1
        then Alcotest.fail "no winner";
        if Array.exists (fun r -> r = Some 2) (Sim.Sched.results sched) then
          Alcotest.fail "fell off a length-2 path with 2 entrants")
      ()
  in
  checkb "explored" true (n > 500)

let test_ep_overflow_possible () =
  (* With more entrants than nodes, falling off is possible (that is what
     the backup path is for): run k = length + 1 sequentially; each
     sequential caller wins splitter 0... so overflow needs concurrency.
     Just check that the code reports Fell_off rather than raising. *)
  let found = ref false in
  for seed = 1 to 300 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (ep_programs ~length:1 3 ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7)));
    if Array.exists (fun r -> r = Some 2) (Sim.Sched.results sched) then
      found := true
  done;
  checkb "overflow observed with k > length" true !found

let test_ep_space () =
  let mem = Sim.Memory.create () in
  let _ = Ratrace.Elim_path.create mem ~length:10 in
  (* 2 registers per splitter + 2 per 2-process election. *)
  checki "4 registers per node" 40 (Sim.Memory.allocated mem)

(* {1 Primary tree} *)

let tree_programs ~height k () =
  let mem = Sim.Memory.create () in
  let tree = Ratrace.Primary_tree.create mem ~height in
  Array.init k (fun _ ctx ->
      match Ratrace.Primary_tree.run tree ctx with
      | Ratrace.Primary_tree.Lost -> 0
      | Ratrace.Primary_tree.Won -> 1
      | Ratrace.Primary_tree.Fell_off leaf -> 100 + leaf)

let test_tree_solo_wins () =
  let sched = Sim.Sched.create (tree_programs ~height:3 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo wins at the root splitter" 1 (Option.get (Sim.Sched.result sched 0))

let test_tree_at_most_one_winner () =
  for seed = 1 to 200 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (tree_programs ~height:4 12 ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 5)));
    let winners =
      Array.fold_left
        (fun a r -> if r = Some 1 then a + 1 else a)
        0 (Sim.Sched.results sched)
    in
    checkb "at most one tree winner" true (winners <= 1)
  done

let test_tree_fell_off_leaf_valid () =
  for seed = 1 to 100 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (tree_programs ~height:2 8 ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 11)));
    Array.iter
      (function
        | Some r when r >= 100 ->
            checkb "leaf index in range" true (r - 100 >= 0 && r - 100 < 4)
        | _ -> ())
      (Sim.Sched.results sched)
  done

let test_tree_ascend_from_leaf_solo () =
  let mem = Sim.Memory.create () in
  let tree = Ratrace.Primary_tree.create mem ~height:3 in
  let prog ctx =
    if Ratrace.Primary_tree.ascend_from_leaf tree ctx ~leaf:2 then 1 else 0
  in
  let sched = Sim.Sched.create [| prog |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "external ascender wins an empty tree" 1 (Option.get (Sim.Sched.result sched 0))

let test_tree_space () =
  let mem = Sim.Memory.create () in
  let _ = Ratrace.Primary_tree.create mem ~height:3 in
  (* 15 usable nodes (heap slot 0 unused but allocated): (2^4 - 1 + 1)
     nodes x (2 rsplitter + 4 le3) registers. *)
  checki "registers" 96 (Sim.Memory.allocated mem)

(* {1 Backup grid} *)

let grid_programs ~n k () =
  let mem = Sim.Memory.create () in
  let grid = Ratrace.Backup_grid.create mem ~n in
  Array.init k (fun _ ctx ->
      match Ratrace.Backup_grid.run grid ctx with
      | Ratrace.Backup_grid.Lost -> 0
      | Ratrace.Backup_grid.Won -> 1)

let test_grid_solo_wins () =
  let sched = Sim.Sched.create (grid_programs ~n:4 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo wins at (0,0)" 1 (Option.get (Sim.Sched.result sched 0))

let test_grid_one_winner () =
  List.iter
    (fun (n, k) ->
      for seed = 1 to 100 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) (grid_programs ~n k ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
        let winners =
          Array.fold_left
            (fun a r -> if r = Some 1 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        checki "exactly one grid winner" 1 winners
      done)
    [ (2, 2); (4, 4); (8, 8); (8, 5) ]

let test_grid_nobody_leaves () =
  (* The Moir-Anderson guarantee: k <= n entrants never leave the grid;
     [run] would raise. *)
  for seed = 1 to 200 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (grid_programs ~n:6 6 ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13)))
  done

(* {1 RatRace variants} *)

let rr_programs make k () =
  let mem = Sim.Memory.create () in
  let elect = make mem in
  Array.init k (fun _ ctx -> if elect ctx then 1 else 0)

let classic_make n mem =
  let rr = Ratrace.Rr_classic.create mem ~n in
  Ratrace.Rr_classic.elect rr

let lean_make n mem =
  let rr = Ratrace.Ratrace_lean.create mem ~n in
  Ratrace.Ratrace_lean.elect rr

let check_one_winner sched =
  let winners =
    Array.fold_left
      (fun a r -> if r = Some 1 then a + 1 else a)
      0 (Sim.Sched.results sched)
  in
  checki "exactly one winner" 1 winners

let test_classic_one_winner () =
  List.iter
    (fun (n, k) ->
      for seed = 1 to 30 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) (rr_programs (classic_make n) k ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
        check_one_winner sched
      done)
    [ (2, 2); (4, 4); (8, 8); (16, 16) ]

let test_classic_solo () =
  let sched = Sim.Sched.create (rr_programs (classic_make 8) 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo wins" 1 (Option.get (Sim.Sched.result sched 0))

let test_classic_exhaustive_2 () =
  let n =
    Sim.Explore.explore ~depth:8 ~programs:(rr_programs (classic_make 2) 2)
      ~check:(fun sched ->
        let winners =
          Array.fold_left
            (fun a r -> if r = Some 1 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        if winners > 1 then Alcotest.fail "two winners";
        if
          Array.for_all Option.is_some (Sim.Sched.results sched)
          && winners <> 1
        then Alcotest.fail "no winner")
      ()
  in
  checkb "explored" true (n > 200)

let test_classic_crash_exhaustive_2 () =
  (* Every bounded crash schedule (one crash anywhere in the first 7
     choices) keeps at-most-one-winner through the full RatRace stack. *)
  let n =
    Sim.Explore.explore ~depth:7 ~max_crashes:1
      ~programs:(rr_programs (classic_make 2) 2)
      ~check:(fun sched ->
        let winners =
          Array.fold_left
            (fun a r -> if r = Some 1 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        if winners > 1 then Alcotest.fail "two winners";
        if
          Array.for_all Option.is_some (Sim.Sched.results sched)
          && winners <> 1
        then Alcotest.fail "no winner")
      ()
  in
  checkb "explored" true (n > 200)

let test_lean_one_winner () =
  List.iter
    (fun (n, k) ->
      for seed = 1 to 30 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) (rr_programs (lean_make n) k ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
        check_one_winner sched
      done)
    [ (2, 2); (4, 4); (8, 8); (16, 16); (64, 64); (64, 17) ]

let test_lean_solo () =
  let sched = Sim.Sched.create (rr_programs (lean_make 8) 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo wins" 1 (Option.get (Sim.Sched.result sched 0))

let test_lean_exhaustive_2 () =
  let n =
    Sim.Explore.explore ~depth:8 ~programs:(rr_programs (lean_make 2) 2)
      ~check:(fun sched ->
        let winners =
          Array.fold_left
            (fun a r -> if r = Some 1 then a + 1 else a)
            0 (Sim.Sched.results sched)
        in
        if winners > 1 then Alcotest.fail "two winners";
        if
          Array.for_all Option.is_some (Sim.Sched.results sched)
          && winners <> 1
        then Alcotest.fail "no winner")
      ()
  in
  checkb "explored" true (n > 200)

let test_lean_crash_safety () =
  for seed = 1 to 150 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (rr_programs (lean_make 16) 16 ())
    in
    let adv =
      Fault.Plan.apply ~seed:(Int64.of_int (seed * 7)) [ Fault.Plan.storm 0.02 ]
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)))
    in
    Sim.Sched.run sched adv;
    let winners =
      Array.fold_left
        (fun a r -> if r = Some 1 then a + 1 else a)
        0 (Sim.Sched.results sched)
    in
    checkb "at most one winner" true (winners <= 1)
  done

let test_lean_backup_rarely_entered () =
  (* Claim 3.2 (w.h.p. no elimination path overflows): runs in which any
     process even touches the length-n backup path must be rare. Backup
     usage is detected from the trace via the ".backup" register names. *)
  let n = 64 in
  let trials = 25 in
  let touched = ref 0 in
  for seed = 1 to trials do
    let mem = Sim.Memory.create () in
    let rr = Ratrace.Ratrace_lean.create mem ~n in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) ~record_trace:true
        (Array.init n (fun _ ctx ->
             if Ratrace.Ratrace_lean.elect rr ctx then 1 else 0))
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
    let used_backup =
      List.exists
        (function
          | Sim.Op.Step { reg_name; _ } ->
              (* ".backup" occurs in the name *)
              let sub = ".backup" in
              let rec find i =
                i + String.length sub <= String.length reg_name
                && (String.sub reg_name i (String.length sub) = sub
                   || find (i + 1))
              in
              find 0
          | _ -> false)
        (Sim.Sched.trace sched)
    in
    if used_backup then incr touched
  done;
  checkb
    (Printf.sprintf "backup path touched in %d/%d runs (expect few)" !touched
       trials)
    true
    (!touched <= trials / 3)

let test_space_lean_vs_classic () =
  (* The point of Section 3: Theta(n) vs Theta(n^3). *)
  let alloc make =
    let mem = Sim.Memory.create () in
    ignore (make mem);
    Sim.Memory.allocated mem
  in
  let lean16 = alloc (fun mem -> Ratrace.Ratrace_lean.create mem ~n:16) in
  let lean64 = alloc (fun mem -> Ratrace.Ratrace_lean.create mem ~n:64) in
  let classic16 = alloc (fun mem -> Ratrace.Rr_classic.create mem ~n:16) in
  checkb
    (Printf.sprintf "classic(16)=%d >> lean(16)=%d" classic16 lean16)
    true
    (classic16 > 10 * lean16);
  (* lean is O(n): quadrupling n should grow space by less than ~8x. *)
  checkb
    (Printf.sprintf "lean scales linearly: %d -> %d" lean16 lean64)
    true
    (lean64 < 8 * lean16);
  (* classic is Omega(n^3) from the 2^(3 log n) tree. *)
  checkb "classic(16) cubic-ish" true (classic16 >= 16 * 16 * 16)

let test_lean_space_linear_bound () =
  List.iter
    (fun n ->
      let mem = Sim.Memory.create () in
      ignore (Ratrace.Ratrace_lean.create mem ~n);
      let regs = Sim.Memory.allocated mem in
      checkb
        (Printf.sprintf "lean(%d) = %d <= 60n" n regs)
        true
        (regs <= 60 * n))
    [ 4; 16; 64; 256; 1024 ]

let test_lean_step_complexity_logarithmic () =
  (* Average max steps should grow roughly like log k: compare k=4 vs
     k=256 — the ratio must stay well below linear. *)
  let avg k =
    let total = ref 0 in
    let trials = 30 in
    for seed = 1 to trials do
      let sched =
        Sim.Sched.create ~seed:(Int64.of_int seed) (rr_programs (lean_make 256) k ())
      in
      Sim.Sched.run sched
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
      total := !total + Sim.Sched.max_steps sched
    done;
    float_of_int !total /. float_of_int trials
  in
  let a4 = avg 4 and a256 = avg 256 in
  checkb
    (Printf.sprintf "sublinear growth: %.1f -> %.1f" a4 a256)
    true
    (a256 < a4 *. 8.0)

(* {1 Lazy node tables}

   The primary tree and the backup grid keep their nodes in
   [Backend.Mem.S] tables, which [Sim_mem] builds on first access. The
   oracle is the eager layout: the same functors instantiated over a
   test backend whose tables are [Array.init], so every entry is built
   at construction, in index order. Both test backends log every
   register they allocate as (id, name). *)

let built = ref []

module Logged_sim = struct
  type mem = Sim.Memory.t
  type reg = Sim.Register.t
  type ctx = Sim.Ctx.t

  let alloc mem ~name =
    let r = Backend.Sim_mem.alloc mem ~name in
    built := (r.Sim.Register.id, r.Sim.Register.name) :: !built;
    r

  let self = Backend.Sim_mem.self
  let read = Backend.Sim_mem.read
  let write = Backend.Sim_mem.write
  let flip = Backend.Sim_mem.flip
  let flip_bool = Backend.Sim_mem.flip_bool
  let flip_geometric = Backend.Sim_mem.flip_geometric
  let enter = Backend.Sim_mem.enter
  let leave = Backend.Sim_mem.leave
end

module Eager_mem = struct
  include Logged_sim

  type 'a table = 'a array

  let table _ ~name:_ len build = Array.init len build
  let get = Array.get
end

(* One (length, touch entry i) pair per table created, newest first. *)
let tables = ref []

module Lazy_mem = struct
  include Logged_sim

  type 'a table = 'a Backend.Sim_mem.table

  let table mem ~name len build =
    let t = Backend.Sim_mem.table mem ~name len build in
    tables := (len, fun i -> ignore (Backend.Sim_mem.get t i)) :: !tables;
    t

  let get = Backend.Sim_mem.get
end

module Eager_tree = Ratrace.Primary_tree.Make (Eager_mem)
module Lazy_tree = Ratrace.Primary_tree.Make (Lazy_mem)
module Eager_grid = Ratrace.Backup_grid.Make (Eager_mem)
module Lazy_grid = Ratrace.Backup_grid.Make (Lazy_mem)

let pp_reg ppf (id, name) = Fmt.pf ppf "%d:%s" id name
let reg_list = Alcotest.(list (testable pp_reg ( = )))

(* Every (table, entry) of a lazily built structure, highest index first
   (the tree's leaves and the grid's far corner before entry 0), then
   shuffled when [seed] is given. *)
let touch_order ?seed () =
  let all =
    List.concat_map
      (fun (len, touch) -> List.init len (fun i -> (i, touch)))
      !tables
  in
  let desc = List.stable_sort (fun (a, _) (b, _) -> compare b a) all in
  match seed with
  | None -> desc
  | Some seed ->
      let st = Random.State.make [| seed |] in
      let a = Array.of_list desc in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      Array.to_list a

let check_layout what ~eager ~lazy_ =
  built := [];
  let emem = Sim.Memory.create () in
  eager emem;
  let reference = List.sort compare !built in
  let declared = Sim.Memory.allocated emem in
  checki (what ^ ": eager layout is dense") declared (List.length reference);
  List.iter
    (fun seed ->
      built := [];
      tables := [];
      let mem = Sim.Memory.create () in
      lazy_ mem;
      checki (what ^ ": declared at create") declared (Sim.Memory.allocated mem);
      let order = touch_order ?seed () in
      let half = List.length order / 2 in
      List.iteri (fun i (e, touch) -> if i < half then touch e) order;
      List.iter
        (fun r ->
          if not (List.mem r reference) then
            Alcotest.failf "%s: built %a, not in the eager layout" what pp_reg r)
        !built;
      List.iter (fun (e, touch) -> touch e) order;
      Alcotest.check reg_list
        (what ^ ": every entry touched = eager layout")
        reference (List.sort compare !built);
      checki (what ^ ": touching declares nothing") declared
        (Sim.Memory.allocated mem))
    [ None; Some 1; Some 2 ]

let test_lazy_tree_layout () =
  for height = 0 to 4 do
    check_layout
      (Printf.sprintf "tree h=%d" height)
      ~eager:(fun mem -> ignore (Eager_tree.create mem ~height))
      ~lazy_:(fun mem -> ignore (Lazy_tree.create mem ~height))
  done

let test_lazy_grid_layout () =
  for n = 1 to 5 do
    check_layout
      (Printf.sprintf "grid n=%d" n)
      ~eager:(fun mem -> ignore (Eager_grid.create mem ~n))
      ~lazy_:(fun mem -> ignore (Lazy_grid.create mem ~n))
  done

let test_classic_declared_count () =
  let declared n =
    let mem = Sim.Memory.create () in
    let w0 = Gc.minor_words () in
    ignore (Ratrace.Rr_classic.create mem ~n);
    (Sim.Memory.allocated mem, Gc.minor_words () -. w0)
  in
  let r64, _ = declared 64 in
  checki "n=64 declares the full Theta(n^3) arena" 3_170_306 r64;
  let r1024, words = declared 1024 in
  checki "n=1024 declares 1.3e10 registers" 12_891_193_346 r1024;
  checkb
    (Printf.sprintf "n=1024 create allocated %.0f minor words (<= 2000)" words)
    true (words <= 2000.)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let raises_naming name f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument naming %s" name
  | exception Invalid_argument msg ->
      checkb (Printf.sprintf "%S names %s" msg name) true (contains ~sub:name msg)

(* Entry [i] allocates [i + 1] registers: no uniform stride. *)
let uneven alloc mem i =
  for _ = 0 to i do
    ignore (alloc mem ~name:"r")
  done

let test_table_fails_loudly () =
  let mem = Sim.Memory.create () in
  let t =
    Backend.Sim_mem.table mem ~name:"uneven-sim" 4
      (uneven Backend.Sim_mem.alloc mem)
  in
  checki "entry 0 built, entries 1-3 reserved" 4 (Sim.Memory.allocated mem);
  raises_naming "uneven-sim" (fun () -> Backend.Sim_mem.get t 1);
  raises_naming "uneven-sim" (fun () -> Backend.Sim_mem.get t 4);
  raises_naming "empty-sim" (fun () ->
      Backend.Sim_mem.table mem ~name:"empty-sim" 0 (fun _ -> ()));
  checki "failed builds declare nothing" 4 (Sim.Memory.allocated mem);
  let raising =
    Backend.Sim_mem.table mem ~name:"raising" 3 (fun i ->
        let r = Backend.Sim_mem.alloc mem ~name:"r" in
        if i = 2 then failwith "builder failed";
        r)
  in
  (match Backend.Sim_mem.get raising 2 with
  | _ -> Alcotest.fail "builder exception swallowed"
  | exception Failure _ -> ());
  checki "cursor restored after a raising build" 7 (Sim.Memory.allocated mem);
  checki "later entry keeps its reserved id" 5
    (Backend.Sim_mem.get raising 1).Sim.Register.id;
  let amem = Backend.Atomic_mem.create () in
  let t =
    Backend.Atomic_mem.table amem ~name:"uneven-atomic" 3
      (uneven Backend.Atomic_mem.alloc amem)
  in
  checki "atomic: entry 0 built, entries 1-2 declared" 3
    (Backend.Atomic_mem.allocated amem);
  raises_naming "uneven-atomic" (fun () -> Backend.Atomic_mem.get t 1);
  raises_naming "uneven-atomic" (fun () -> Backend.Atomic_mem.get t 3);
  raises_naming "empty-atomic" (fun () ->
      Backend.Atomic_mem.table amem ~name:"empty-atomic" 0 (fun _ -> ()))

let test_table_get_allocation_free () =
  let mem = Sim.Memory.create () in
  let t =
    Backend.Sim_mem.table mem ~name:"t" 1_000 (fun i ->
        Backend.Sim_mem.alloc mem ~name:(string_of_int i))
  in
  for i = 0 to 999 do
    ignore (Backend.Sim_mem.get t i)
  done;
  let before = Gc.minor_words () in
  let sum = ref 0 in
  for _ = 1 to 100 do
    for i = 0 to 999 do
      sum := !sum + (Backend.Sim_mem.get t i).Sim.Register.id
    done
  done;
  let words = Gc.minor_words () -. before in
  checki "entry i is register i" (100 * (999 * 1000 / 2)) !sum;
  checkb
    (Printf.sprintf "100k gets of built entries allocated %.0f words" words)
    true (words <= 10.)

let () =
  Alcotest.run "ratrace"
    [
      ( "elim-path",
        [
          Alcotest.test_case "solo wins" `Quick test_ep_solo_wins;
          Alcotest.test_case "claim 3.1" `Quick test_ep_claim_3_1;
          Alcotest.test_case "exhaustive" `Quick test_ep_exhaustive;
          Alcotest.test_case "overflow beyond capacity" `Quick test_ep_overflow_possible;
          Alcotest.test_case "space" `Quick test_ep_space;
        ] );
      ( "primary-tree",
        [
          Alcotest.test_case "solo wins" `Quick test_tree_solo_wins;
          Alcotest.test_case "at most one winner" `Quick test_tree_at_most_one_winner;
          Alcotest.test_case "fell-off leaves valid" `Quick test_tree_fell_off_leaf_valid;
          Alcotest.test_case "ascend from leaf" `Quick test_tree_ascend_from_leaf_solo;
          Alcotest.test_case "space" `Quick test_tree_space;
        ] );
      ( "backup-grid",
        [
          Alcotest.test_case "solo wins" `Quick test_grid_solo_wins;
          Alcotest.test_case "exactly one winner" `Quick test_grid_one_winner;
          Alcotest.test_case "nobody leaves" `Quick test_grid_nobody_leaves;
        ] );
      ( "lazy-tables",
        [
          Alcotest.test_case "tree layout = eager" `Quick test_lazy_tree_layout;
          Alcotest.test_case "grid layout = eager" `Quick test_lazy_grid_layout;
          Alcotest.test_case "classic declared count" `Quick
            test_classic_declared_count;
          Alcotest.test_case "bad tables fail loudly" `Quick
            test_table_fails_loudly;
          Alcotest.test_case "get is allocation-free" `Quick
            test_table_get_allocation_free;
        ] );
      ( "ratrace",
        [
          Alcotest.test_case "classic: one winner" `Quick test_classic_one_winner;
          Alcotest.test_case "classic: solo" `Quick test_classic_solo;
          Alcotest.test_case "classic: exhaustive n=2" `Quick test_classic_exhaustive_2;
          Alcotest.test_case "classic: exhaustive crash schedules" `Quick
            test_classic_crash_exhaustive_2;
          Alcotest.test_case "lean: one winner" `Quick test_lean_one_winner;
          Alcotest.test_case "lean: solo" `Quick test_lean_solo;
          Alcotest.test_case "lean: exhaustive n=2" `Quick test_lean_exhaustive_2;
          Alcotest.test_case "lean: crash safety" `Quick test_lean_crash_safety;
          Alcotest.test_case "lean: backup rarely entered (claim 3.2)" `Quick
            test_lean_backup_rarely_entered;
          Alcotest.test_case "space: lean vs classic" `Quick test_space_lean_vs_classic;
          Alcotest.test_case "space: lean is O(n)" `Quick test_lean_space_linear_bound;
          Alcotest.test_case "steps: lean is O(log k)" `Quick
            test_lean_step_complexity_logarithmic;
        ] );
    ]
