(* Tests for the chain construction and every leader-election
   implementation (Sections 2.1-2.3 plus baselines). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let implementations : (string * (Sim.Memory.t -> n:int -> Leaderelect.Le.t)) list =
  [
    ("log*", Tutil.make "log*");
    ("loglog", Tutil.make "loglog");
    ("aa", Tutil.make "aa");
    ("tournament", Tutil.make "tournament");
    ("ratrace-lean", Tutil.make "ratrace-lean");
    ("poison", Tutil.make "poison");
  ]

(* Opt_space_le is excluded from [implementations]: its crash-free
   exactly-one-winner guarantee is deterministic only for
   k <= chain_levels n (see its interface), and the generic sweeps run
   k = n. It gets the same coverage in its own group below, inside the
   deterministic regime. *)

(* {1 Chain construction basics} *)

let chain_programs ~n k () =
  let mem = Sim.Memory.create () in
  let ges =
    Array.init n (fun i ->
        Groupelect.Ge_logstar.create ~name:(Printf.sprintf "ge[%d]" i) mem ~n)
  in
  let chain = Leaderelect.Chain.create mem ges in
  Array.init k (fun _ ctx -> if Leaderelect.Chain.elect chain ctx then 1 else 0)

let count_winners sched =
  Array.fold_left
    (fun a r -> if r = Some 1 then a + 1 else a)
    0
    (Sim.Sched.results sched)

let test_chain_solo () =
  let sched = Sim.Sched.create (chain_programs ~n:4 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo wins" 1 (Option.get (Sim.Sched.result sched 0))

let test_chain_one_winner () =
  List.iter
    (fun (n, k) ->
      for seed = 1 to 50 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) (chain_programs ~n k ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)));
        checki "exactly one winner" 1 (count_winners sched)
      done)
    [ (2, 2); (8, 8); (32, 32); (32, 9) ]

let test_chain_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:8 ~programs:(chain_programs ~n:2 2)
      ~check:(fun sched ->
        let w = count_winners sched in
        if w > 1 then Alcotest.fail "two winners";
        if Array.for_all Option.is_some (Sim.Sched.results sched) && w <> 1 then
          Alcotest.fail "no winner")
      ()
  in
  checkb "explored" true (n > 100)

let test_chain_never_exhausts () =
  (* N_(i+1) <= N_i - 1, so a k-level chain suffices for k processes;
     Chain.elect raises on overflow, so absence of exceptions is the
     assertion. *)
  for seed = 1 to 100 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed) (chain_programs ~n:8 8 ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7)))
  done

(* {1 Generic properties of every implementation} *)

let test_impl_safety (name, make) () =
  ignore name;
  Tutil.safety_sweep ~trials:25 ~make ~n:32 ~ks:[ 1; 2; 3; 8; 17; 32 ] ()

let test_impl_solo (name, make) () =
  ignore name;
  let sched, _ =
    Tutil.run_le ~make ~n:16 ~k:1 (Sim.Adversary.round_robin ())
  in
  checki "solo wins" 1 (Tutil.count_winners sched)

let test_impl_sequential (name, make) () =
  (* Processes run one after another: still exactly one winner. *)
  ignore name;
  let k = 8 in
  let schedule =
    Array.concat
      (List.init k (fun pid -> Array.make 4000 pid))
  in
  let sched, _ =
    Tutil.run_le ~make ~n:16 ~k
      (Sim.Adversary.fixed_schedule ~then_halt:false schedule)
  in
  checki "exactly one winner" 1 (Tutil.count_winners sched)

let test_impl_exhaustive (name, make) () =
  ignore name;
  let programs () =
    let mem = Sim.Memory.create () in
    let le = make mem ~n:2 in
    Leaderelect.Le.programs le ~k:2
  in
  let n =
    Sim.Explore.explore ~depth:7 ~programs
      ~check:(fun sched ->
        let w = Tutil.count_winners sched in
        if w > 1 then Alcotest.fail "two winners";
        if Tutil.all_finished sched && w <> 1 then Alcotest.fail "no winner")
      ()
  in
  checkb "explored" true (n > 50)

let test_impl_larger_k (name, make) () =
  ignore name;
  for seed = 1 to 10 do
    let sched, _ =
      Tutil.run_le ~seed:(Int64.of_int seed) ~make ~n:128 ~k:128
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)))
    in
    Tutil.check_le_outcome ~crash_free:true sched
  done

(* {1 Per-algorithm specifics} *)

let test_logstar_space_linear () =
  List.iter
    (fun n ->
      let mem = Sim.Memory.create () in
      ignore (Leaderelect.Le_logstar.create mem ~n);
      let regs = Sim.Memory.allocated mem in
      checkb (Printf.sprintf "log*(%d) = %d <= 10n" n regs) true (regs <= 10 * n))
    [ 16; 64; 256; 1024; 4096 ]

let test_logstar_steps_nearly_constant () =
  (* O(log* k): the average max step count should be essentially flat in
     k; allow a generous factor of 2 between k=4 and k=1024. *)
  let a4 = Tutil.avg_max_steps ~trials:25 ~make:(Tutil.make "log*") ~n:1024 ~k:4 () in
  let a1024 =
    Tutil.avg_max_steps ~trials:25 ~make:(Tutil.make "log*") ~n:1024 ~k:1024 ()
  in
  checkb
    (Printf.sprintf "log* steps nearly flat: %.1f -> %.1f" a4 a1024)
    true
    (a1024 < a4 *. 3.0 +. 20.0)

let test_loglog_rungs () =
  let caps = Leaderelect.Le_loglog.rung_capacities ~n:4096 in
  checkb "several rungs" true (Array.length caps >= 3);
  checki "first rung" 4 caps.(0);
  checki "second rung" 16 caps.(1);
  checki "last rung is n" 4096 caps.(Array.length caps - 1);
  let caps_small = Leaderelect.Le_loglog.rung_capacities ~n:3 in
  checki "n small: single rung" 3 caps_small.(0)

let test_loglog_space_linear () =
  List.iter
    (fun n ->
      let mem = Sim.Memory.create () in
      ignore (Leaderelect.Le_loglog.create mem ~n);
      let regs = Sim.Memory.allocated mem in
      checkb (Printf.sprintf "loglog(%d) = %d <= 12n + 64" n regs) true
        (regs <= (12 * n) + 64))
    [ 16; 64; 256; 1024 ]

let test_tournament_all_pids_distinct_leaves () =
  (* Every pid must map to a distinct leaf: sequential runs give the
     first-started process the win. *)
  let k = 8 in
  let schedule = Array.concat (List.init k (fun pid -> Array.make 200 pid)) in
  let sched, _ =
    Tutil.run_le ~make:(Tutil.make "tournament") ~n:8 ~k
      (Sim.Adversary.fixed_schedule ~then_halt:false schedule)
  in
  checki "one winner" 1 (Tutil.count_winners sched)

let test_tournament_steps_logarithmic () =
  let a = Tutil.avg_max_steps ~trials:25 ~make:(Tutil.make "tournament") ~n:256 ~k:256 () in
  (* 8 levels, constant expected steps each. *)
  checkb (Printf.sprintf "tournament steps %.1f <= 150" a) true (a <= 150.0)

module Aa_original =
  Leaderelect.Aa.Make_fallback (Ratrace.Rr_classic.Make) (Backend.Sim_mem)

let test_aa_original_fallback () =
  let make mem ~n = Aa_original.(elect (create mem ~n)) in
  for seed = 1 to 10 do
    let sched, _ =
      Tutil.run_le ~seed:(Int64.of_int seed) ~make ~n:8
        ~k:8
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)))
    in
    Tutil.check_le_outcome ~crash_free:true sched
  done

(* {1 The adaptive attack on the log* chain (Section 4 motivation)} *)

let attack_adversary = Leaderelect.Attacks.ascending_location

let test_adaptive_attack_hurts_logstar () =
  (* Under the ascending-location adaptive adversary the log* algorithm
     degrades: its max steps grow roughly linearly in k, far above its
     near-constant behaviour under oblivious scheduling. *)
  let run adv k seed =
    let sched, _ =
      Tutil.run_le ~seed:(Int64.of_int seed) ~make:(Tutil.make "log*")
        ~n:64 ~k (adv seed)
    in
    Sim.Sched.max_steps sched
  in
  let avg adv k =
    let t = ref 0 in
    for seed = 1 to 20 do
      t := !t + run adv k seed
    done;
    float_of_int !t /. 20.0
  in
  let attacked = avg (fun _ -> attack_adversary ()) 64 in
  let oblivious =
    avg (fun s -> Sim.Adversary.random_oblivious ~seed:(Int64.of_int (s * 3))) 64
  in
  checkb
    (Printf.sprintf "attack %.1f > 2x oblivious %.1f" attacked oblivious)
    true
    (attacked > 2.0 *. oblivious)

let test_rw_attack_hurts_logstar () =
  (* The same degradation is achievable by a merely R/W-oblivious
     adversary: the pending location alone leaks the random index, which
     is the paper's reason the log* algorithm needs the
     location-oblivious model. *)
  let avg adv k =
    let t = ref 0 in
    for seed = 1 to 20 do
      let sched, _ =
        Tutil.run_le ~seed:(Int64.of_int seed) ~make:(Tutil.make "log*")
          ~n:64 ~k (adv seed)
      in
      t := !t + Sim.Sched.max_steps sched
    done;
    float_of_int !t /. 20.0
  in
  let attacked = avg (fun _ -> Leaderelect.Attacks.ascending_location_rw ()) 64 in
  let oblivious =
    avg (fun s -> Sim.Adversary.random_oblivious ~seed:(Int64.of_int (s * 3))) 64
  in
  Alcotest.(check bool)
    (Printf.sprintf "rw attack %.1f > 2x oblivious %.1f" attacked oblivious)
    true
    (attacked > 2.0 *. oblivious)

let test_read_priority_defeats_sifting () =
  (* A location-oblivious adversary that schedules pending reads first
     makes every sifting participant elected: it sees operation kinds,
     which is exactly what sifting randomizes. Measured on one sifting
     GroupElect: all k processes get elected. *)
  let k = 64 in
  for seed = 1 to 20 do
    let mem = Sim.Memory.create () in
    let ge =
      Groupelect.Ge_sift.create mem ~write_prob:(1.0 /. sqrt (float_of_int k))
    in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed)
        (Array.init k (fun _ ctx -> if ge.Groupelect.Ge.elect ctx then 1 else 0))
    in
    Sim.Sched.run sched (Leaderelect.Attacks.read_priority ());
    let elected =
      Array.fold_left
        (fun a r -> if r = Some 1 then a + 1 else a)
        0 (Sim.Sched.results sched)
    in
    Alcotest.(check int) "everyone elected under read-priority" k elected
  done

let test_read_priority_cannot_hurt_logstar_much () =
  (* The converse separation: read-priority is useless against the
     Figure 1 GroupElect, which stays logarithmic. *)
  let k = 64 in
  let total = ref 0 in
  for seed = 1 to 20 do
    let mem = Sim.Memory.create () in
    let ge = Groupelect.Ge_logstar.create mem ~n:64 in
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed)
        (Array.init k (fun _ ctx -> if ge.Groupelect.Ge.elect ctx then 1 else 0))
    in
    Sim.Sched.run sched (Leaderelect.Attacks.read_priority ());
    total :=
      !total
      + Array.fold_left
          (fun a r -> if r = Some 1 then a + 1 else a)
          0 (Sim.Sched.results sched)
  done;
  let mean = float_of_int !total /. 20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "fig-1 elected mean %.1f <= 2 log k + 6" mean)
    true
    (mean <= (2.0 *. (log (float_of_int k) /. log 2.0)) +. 6.0)

(* {1 Golden traces: the Duel.S refactor must not move a byte}

   Tournament and the chain were re-expressed over the pluggable
   [Primitives.Duel.S] signature; these fingerprints were captured from
   the pre-refactor code (fixed seeds, fixed adversaries, full event
   traces including flips) and pin the instantiations over [Le2] to the
   exact original executions — register names, operation order and coin
   stream included.

   The RatRace cases were captured from the eager register arena, before
   classic RatRace's tree and grid nodes became lazily built tables: they
   pin the lazy layout (ids and names) to the eager one. The n=2 seed 747
   case falls off the primary tree and descends the backup grid from
   (0,0) to (1,0), so it pins the grid's row-major indexing too; lean
   RatRace shares [Primary_tree].

   The loglog, aa and combined-* cases were captured from the code
   written against the simulator, before those elections became
   functors over [Backend.Mem.S]; the combined ones also pin the
   stepped-memory interleaving to the old effect-catching one. *)

let trace_fingerprint sched =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map Sim.Op.event_to_string (Sim.Sched.trace sched))))

let golden_cases =
  [
    ("tournament", Tutil.make "tournament", 8, 8, 5L, `Rand,
     "c0ea3b2a67a1d09cc1c0ae70a270173d", 16);
    ("tournament", Tutil.make "tournament", 8, 8, 9L, `Rr,
     "feeb56772916d76ffc1f03644d354c46", 16);
    ("log*", Tutil.make "log*", 8, 8, 5L, `Rand,
     "c56769ee469e440bc0e13a7b69c5b548", 72);
    ("log*", Tutil.make "log*", 8, 8, 9L, `Rr,
     "cb1825cf594aad2aef828a1c1f02cd49", 72);
    ("tournament", Tutil.make "tournament", 16, 5, 3L, `Rand,
     "690e8b436f2bc4c66dd7a46ec1054ce6", 32);
    ("log*", Tutil.make "log*", 16, 5, 3L, `Rand,
     "b94ce997bc5544e31c1bfc06df2c3fa6", 136);
    ("ratrace", Tutil.make "ratrace", 8, 8, 5L, `Rand,
     "c1ff6e37886f8e73969e08719d122e81", 6530);
    ("ratrace", Tutil.make "ratrace", 8, 8, 9L, `Rr,
     "36f64752ed21e397748d6316d5bf39f8", 6530);
    ("ratrace", Tutil.make "ratrace", 16, 5, 3L, `Rand,
     "e4d70121d491a9bb281b68124f850d98", 50690);
    ("ratrace", Tutil.make "ratrace", 2, 2, 747L, `Rand,
     "2b71e7f8d3638b3edf6759fa89247641", 122);
    ("ratrace-lean", Tutil.make "ratrace-lean", 8, 8, 5L, `Rand,
     "e5de16f6f11bf1d04845df7d71342ae0", 274);
    ("ratrace-lean", Tutil.make "ratrace-lean", 16, 5, 3L, `Rand,
     "94df6d52f0f350df726331bc9ee3c32a", 514);
    ("loglog", Tutil.make "loglog", 8, 8, 5L, `Rand,
     "20857ef15e1b209f893ef8bcafeb2df0", 40);
    ("loglog", Tutil.make "loglog", 8, 8, 9L, `Rr,
     "10fcbc56d0b9dd2ff457632e88f49b8b", 40);
    ("loglog", Tutil.make "loglog", 16, 5, 3L, `Rand,
     "aebc049f2eab9730b331e522f8e0dabd", 74);
    ("aa", Tutil.make "aa", 8, 8, 5L, `Rand,
     "ebd780cd287de525ef49a911fe365248", 280);
    ("aa", Tutil.make "aa", 8, 8, 9L, `Rr,
     "034de09790500d45bd55220e6bfa26dc", 280);
    ("aa", Tutil.make "aa", 16, 5, 3L, `Rand,
     "d13afadab9067cf6fa031eae022c8211", 526);
    ("combined-log*", Tutil.make "combined-log*", 8, 8, 5L, `Rand,
     "1237a62893915ac89662181ebeeab6fd", 348);
    ("combined-log*", Tutil.make "combined-log*", 8, 8, 9L, `Rr,
     "f9386f4eb76f681fee1b72a729354529", 348);
    ("combined-log*", Tutil.make "combined-log*", 16, 5, 3L, `Rand,
     "6a3191fbcdf55e79465f4f6d50677738", 652);
    ("combined-loglog", Tutil.make "combined-loglog", 8, 8, 5L, `Rand,
     "0ced37f8ab0763707d78db1d24bfc15a", 316);
    ("combined-loglog", Tutil.make "combined-loglog", 8, 8, 9L, `Rr,
     "4611c6b178e3b0822b614dcf194d13f7", 316);
    ("combined-loglog", Tutil.make "combined-loglog", 16, 5, 3L, `Rand,
     "2a8be8e1a77922a6e04063e884f70b74", 590);
  ]

let test_golden_traces () =
  List.iter
    (fun (name, make, n, k, seed, adv, digest, regs) ->
      let mem = Sim.Memory.create () in
      let le : Leaderelect.Le.t = make mem ~n in
      let sched =
        Sim.Sched.create ~seed ~record_trace:true
          (Leaderelect.Le.programs le ~k)
      in
      let adv =
        match adv with
        | `Rr -> Sim.Adversary.round_robin ()
        | `Rand -> Sim.Adversary.random_oblivious ~seed:(Int64.mul seed 7L)
      in
      Sim.Sched.run sched adv;
      checki
        (Printf.sprintf "%s n=%d: register count" name n)
        regs (Sim.Memory.allocated mem);
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d k=%d seed=%Ld: trace fingerprint" name n k
           seed)
        digest (trace_fingerprint sched))
    golden_cases

(* {1 Pluggable duels: constructions over Le2_bounded} *)

module T_bounded =
  Leaderelect.Tournament.Make_duel (Primitives.Le2_bounded.Make)
    (Backend.Sim_mem)

module C_bounded =
  Leaderelect.Chain.Make_duel (Primitives.Le2_bounded.Make) (Backend.Sim_mem)

let tb_programs ~n k () =
  let mem = Sim.Memory.create () in
  let t = T_bounded.create mem ~n in
  Array.init k (fun _ ctx -> if T_bounded.elect t ctx then 1 else 0)

let cb_programs ~n k () =
  let mem = Sim.Memory.create () in
  let ges =
    Array.init n (fun i ->
        Groupelect.Ge_logstar.create ~name:(Printf.sprintf "ge[%d]" i) mem ~n)
  in
  let chain = C_bounded.create mem ges in
  Array.init k (fun _ ctx -> if C_bounded.elect chain ctx then 1 else 0)

let check_one_winner sched =
  let w = Tutil.count_winners sched in
  if w > 1 then Alcotest.fail "two winners";
  if Tutil.all_finished sched && w <> 1 then Alcotest.fail "no winner"

let test_bounded_tournament_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:10 ~programs:(tb_programs ~n:2 2)
      ~check:check_one_winner ()
  in
  checkb "explored" true (n > 1_000)

let test_bounded_tournament_crash_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:9 ~max_crashes:1 ~programs:(tb_programs ~n:2 2)
      ~check:(fun sched ->
        if Tutil.count_winners sched > 1 then Alcotest.fail "two winners")
      ()
  in
  checkb "explored" true (n > 1_000)

let test_bounded_chain_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:8 ~programs:(cb_programs ~n:2 2)
      ~check:check_one_winner ()
  in
  checkb "explored" true (n > 100)

let test_bounded_constructions_random () =
  (* Larger systems under random schedules: the plug must not disturb
     the constructions' safety, and every written duel value must stay
     in the bounded domain {0..7} — proof the bounded duel is actually
     the one in the tree. *)
  List.iter
    (fun programs ->
      for seed = 1 to 50 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed) ~record_trace:true
            (programs ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 13)));
        check_one_winner sched;
        List.iter
          (function
            | Sim.Op.Step { kind = Sim.Op.Write v; reg_name; _ }
              when String.length reg_name >= 3
                   && String.sub reg_name 0 3 = "tou" ->
                checkb "bounded value" true (v >= 0 && v < 8)
            | _ -> ())
          (Sim.Sched.trace sched)
      done)
    [ tb_programs ~n:8 8; cb_programs ~n:8 8 ]

(* {1 Poison_le and Opt_space_le model checks and space} *)

let poison_programs ~n k () =
  let mem = Sim.Memory.create () in
  let le = Leaderelect.Poison_le.create mem ~n in
  Array.init k (fun _ ctx -> if Leaderelect.Poison_le.elect le ctx then 1 else 0)

let optspace_programs ~n k () =
  let mem = Sim.Memory.create () in
  let le = Leaderelect.Opt_space_le.create mem ~n in
  Array.init k (fun _ ctx ->
      if Leaderelect.Opt_space_le.elect le ctx then 1 else 0)

let test_poison_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:9 ~programs:(poison_programs ~n:2 2)
      ~check:check_one_winner ()
  in
  checkb "explored" true (n > 1_000)

let test_poison_crash_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:8 ~max_crashes:1
      ~programs:(poison_programs ~n:2 2)
      ~check:(fun sched ->
        if Tutil.count_winners sched > 1 then Alcotest.fail "two winners")
      ()
  in
  checkb "explored" true (n > 1_000)

let test_optspace_exhaustive () =
  (* At n = 2 the sift prefix is empty (the schedule starts above
     k = 8), so the execution tree is mostly deterministic splitter
     interleavings — fewer executions per depth than poison's. *)
  let n =
    Sim.Explore.explore ~depth:12 ~programs:(optspace_programs ~n:2 2)
      ~check:check_one_winner ()
  in
  checkb "explored" true (n > 500)

let test_optspace_crash_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:8 ~max_crashes:1
      ~programs:(optspace_programs ~n:2 2)
      ~check:(fun sched ->
        if Tutil.count_winners sched > 1 then Alcotest.fail "two winners")
      ()
  in
  checkb "explored" true (n > 1_000)

let test_optspace_safety_in_regime () =
  (* The deterministic-liveness regime: k <= chain_levels n. *)
  Tutil.safety_sweep ~trials:25 ~make:(Tutil.make "opt-space") ~n:32
    ~ks:[ 1; 2; 3; 8; 15 ] ()

let test_optspace_solo () =
  let sched, _ =
    Tutil.run_le ~make:(Tutil.make "opt-space") ~n:16 ~k:1
      (Sim.Adversary.round_robin ())
  in
  checki "solo wins" 1 (Tutil.count_winners sched)

let test_optspace_sequential () =
  let k = 8 in
  let schedule =
    Array.concat (List.init k (fun pid -> Array.make 4000 pid))
  in
  let sched, _ =
    Tutil.run_le ~make:(Tutil.make "opt-space") ~n:16 ~k
      (Sim.Adversary.fixed_schedule ~then_halt:false schedule)
  in
  checki "exactly one winner" 1 (Tutil.count_winners sched)

let test_optspace_space_logarithmic () =
  List.iter
    (fun n ->
      let mem = Sim.Memory.create () in
      ignore (Leaderelect.Opt_space_le.create mem ~n);
      let regs = Sim.Memory.allocated mem in
      let log2n =
        int_of_float (ceil (log (float_of_int n) /. log 2.0))
      in
      checkb
        (Printf.sprintf "opt-space(%d) = %d <= 13 log n + 8" n regs)
        true
        (regs <= (13 * log2n) + 8);
      checkb
        (Printf.sprintf "opt-space(%d) = %d above Omega(log n)" n regs)
        true
        (regs >= Lowerbound.Covering.register_lower_bound ~n))
    [ 8; 64; 256; 1024; 4096 ]

let test_poison_space_linear () =
  List.iter
    (fun n ->
      let mem = Sim.Memory.create () in
      ignore (Leaderelect.Poison_le.create mem ~n);
      let regs = Sim.Memory.allocated mem in
      checkb (Printf.sprintf "poison(%d) = %d <= 5n + 64" n regs) true
        (regs <= (5 * n) + 64))
    [ 16; 64; 256; 1024 ]

let () =
  let per_impl mk =
    List.map (fun (name, make) -> mk (name, make)) implementations
  in
  Alcotest.run "leaderelect"
    [
      ( "golden",
        [
          Alcotest.test_case "Duel.S refactor byte-identical" `Quick
            test_golden_traces;
        ] );
      ( "duel-plug",
        [
          Alcotest.test_case "bounded tournament exhaustive" `Quick
            test_bounded_tournament_exhaustive;
          Alcotest.test_case "bounded tournament crash-exhaustive" `Quick
            test_bounded_tournament_crash_exhaustive;
          Alcotest.test_case "bounded chain exhaustive" `Quick
            test_bounded_chain_exhaustive;
          Alcotest.test_case "bounded constructions random" `Quick
            test_bounded_constructions_random;
        ] );
      ( "poison",
        [
          Alcotest.test_case "exhaustive n=2" `Quick test_poison_exhaustive;
          Alcotest.test_case "crash-exhaustive n=2" `Quick
            test_poison_crash_exhaustive;
          Alcotest.test_case "space O(n)" `Quick test_poison_space_linear;
        ] );
      ( "opt-space",
        [
          Alcotest.test_case "exhaustive n=2" `Quick test_optspace_exhaustive;
          Alcotest.test_case "crash-exhaustive n=2" `Quick
            test_optspace_crash_exhaustive;
          Alcotest.test_case "safety in regime" `Quick
            test_optspace_safety_in_regime;
          Alcotest.test_case "solo" `Quick test_optspace_solo;
          Alcotest.test_case "sequential" `Quick test_optspace_sequential;
          Alcotest.test_case "space Theta(log n)" `Quick
            test_optspace_space_logarithmic;
        ] );
      ( "chain",
        [
          Alcotest.test_case "solo" `Quick test_chain_solo;
          Alcotest.test_case "one winner" `Quick test_chain_one_winner;
          Alcotest.test_case "exhaustive n=2" `Quick test_chain_exhaustive;
          Alcotest.test_case "never exhausts" `Quick test_chain_never_exhausts;
        ] );
      ( "safety",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_impl_safety (name, make))) );
      ( "solo",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_impl_solo (name, make))) );
      ( "sequential",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_impl_sequential (name, make))) );
      ( "exhaustive",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_impl_exhaustive (name, make))) );
      ( "large-k",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_impl_larger_k (name, make))) );
      ( "specifics",
        [
          Alcotest.test_case "log* space O(n)" `Quick test_logstar_space_linear;
          Alcotest.test_case "log* steps nearly constant" `Quick
            test_logstar_steps_nearly_constant;
          Alcotest.test_case "loglog rung capacities" `Quick test_loglog_rungs;
          Alcotest.test_case "loglog space O(n)" `Quick test_loglog_space_linear;
          Alcotest.test_case "tournament sequential" `Quick
            test_tournament_all_pids_distinct_leaves;
          Alcotest.test_case "tournament steps O(log n)" `Quick
            test_tournament_steps_logarithmic;
          Alcotest.test_case "aa original fallback" `Quick test_aa_original_fallback;
          Alcotest.test_case "adaptive attack on log*" `Quick
            test_adaptive_attack_hurts_logstar;
        ] );
      ( "attack-safety",
        (* Attacks degrade performance, never correctness: every
           algorithm must still elect exactly one winner under every
           attack strategy. *)
        List.concat_map
          (fun (name, make) ->
            List.map
              (fun (aname, adv) ->
                Alcotest.test_case (name ^ " vs " ^ aname) `Quick (fun () ->
                    for seed = 1 to 15 do
                      let sched, _ =
                        Tutil.run_le ~seed:(Int64.of_int seed) ~make ~n:16
                          ~k:16 (adv ())
                      in
                      Tutil.check_le_outcome ~crash_free:true sched
                    done))
              [
                ("ascending", Leaderelect.Attacks.ascending_location);
                ("ascending-rw", Leaderelect.Attacks.ascending_location_rw);
                ("read-priority", Leaderelect.Attacks.read_priority);
              ])
          implementations );
      ( "attack-parsers",
        [
          Alcotest.test_case "register index" `Quick (fun () ->
              Alcotest.(check (option int))
                "R cell" (Some 5)
                (Leaderelect.Attacks.register_index "x.ge[3].R[5]");
              Alcotest.(check (option int))
                "no bracket" None
                (Leaderelect.Attacks.register_index "x.flag");
              Alcotest.(check (option int))
                "trailing index" (Some 12)
                (Leaderelect.Attacks.register_index "chain.sp[12]"));
        ] );
      ( "obstruction-free",
        [
          Alcotest.test_case "solo terminates" `Quick (fun () ->
              let sched, _ =
                Tutil.run_le ~make:Leaderelect.Le_obstruction.make ~n:8 ~k:1
                  (Sim.Adversary.round_robin ())
              in
              checki "solo wins deterministically" 1 (Tutil.count_winners sched));
          Alcotest.test_case "safety under random schedules" `Quick (fun () ->
              for seed = 1 to 200 do
                let sched, _ =
                  Tutil.run_le ~seed:(Int64.of_int seed)
                    ~make:Leaderelect.Le_obstruction.make ~n:8 ~k:8
                    (Sim.Adversary.random_oblivious
                       ~seed:(Int64.of_int (seed * 3)))
                in
                Tutil.check_le_outcome ~crash_free:true sched
              done);
          Alcotest.test_case "deterministic: same schedule, same winner" `Quick
            (fun () ->
              let run () =
                Tutil.run_le ~make:Leaderelect.Le_obstruction.make ~n:8 ~k:8
                  (Sim.Adversary.random_oblivious ~seed:42L)
              in
              let a, _ = run () and b, _ = run () in
              Alcotest.(check (list int))
                "same winners" (Leaderelect.Le.winners a)
                (Leaderelect.Le.winners b));
          Alcotest.test_case "lockstep livelocks (not wait-free)" `Quick
            (fun () ->
              (* Two processes in a duel under strict alternation advance
                 in lockstep forever: obstruction-freedom permits this. *)
              let mem = Sim.Memory.create () in
              let duel = Leaderelect.Le_obstruction.duel2 mem in
              let programs =
                Array.init 2 (fun port ctx ->
                    if Leaderelect.Le_obstruction.duel_elect duel ctx ~port
                    then 1
                    else 0)
              in
              let sched = Sim.Sched.create programs in
              checkb "livelock detected" true
                (try
                   Sim.Sched.run ~max_total_steps:10_000 sched
                     (Sim.Adversary.round_robin ());
                   false
                 with Failure _ -> true));
          Alcotest.test_case "space respects Omega(log n)" `Quick (fun () ->
              List.iter
                (fun n ->
                  let mem = Sim.Memory.create () in
                  ignore (Leaderelect.Le_obstruction.create mem ~n);
                  checkb "above lower bound" true
                    (Sim.Memory.allocated mem
                    >= Lowerbound.Covering.register_lower_bound ~n))
                [ 8; 64; 1024 ]);
        ] );
      ( "separations",
        [
          Alcotest.test_case "rw-oblivious attack on log*" `Quick
            test_rw_attack_hurts_logstar;
          Alcotest.test_case "read-priority defeats sifting" `Quick
            test_read_priority_defeats_sifting;
          Alcotest.test_case "read-priority harmless to fig-1" `Quick
            test_read_priority_cannot_hurt_logstar_much;
        ] );
    ]
