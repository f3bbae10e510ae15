(* Tests for the Section 4 adversary-independence combiner. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module Combined_rr =
  Combined.Combine.Make (Ratrace.Ratrace_lean.Make) (Backend.Sim_mem)

let combined_impls : (string * (Sim.Memory.t -> n:int -> Leaderelect.Le.t)) list =
  [
    ("combined-log*", Tutil.make "combined-log*");
    ("combined-loglog", Tutil.make "combined-loglog");
    ( "combined-ratrace",
      (* A = RatRace itself: the pathological self-combination the paper
         discusses (mutual elimination) — the rules must still produce a
         winner. *)
      fun mem ~n -> Combined_rr.(elect (create mem ~n)) );
  ]

(* {1 Coroutine interleaver}

   The cases are written once over the stepped memory of any backend:
   on the simulator they run inside a scheduled process, on [Atomic_mem]
   directly in the calling domain. *)

module Coroutine_cases (M : Backend.Mem.S) = struct
  module St = Combined.Coroutine.Stepped (M)

  let rec drive sub =
    match Combined.Coroutine.state sub with
    | Combined.Coroutine.Finished b -> b
    | Combined.Coroutine.Running ->
        Combined.Coroutine.step sub;
        drive sub

  (* One write and one read between two flips: two steps, two flips. *)
  let counts mem ctx =
    let reg = M.alloc mem ~name:"r" in
    drive
      (Combined.Coroutine.spawn (fun () ->
           ignore (St.flip ctx 2);
           St.write ctx reg 1;
           ignore (St.flip ctx 2);
           St.read ctx reg = 1))

  (* Two sub-computations alternate their writes; the order of the
     writes that landed, most recent first. *)
  let interleaves mem ctx =
    let a = M.alloc mem ~name:"a" and b = M.alloc mem ~name:"b" in
    let order = ref [] in
    let wr reg tag () =
      St.write ctx reg 1;
      order := tag :: !order;
      St.write ctx reg 2;
      order := tag :: !order;
      true
    in
    let s1 = Combined.Coroutine.spawn (wr a "a") in
    let s2 = Combined.Coroutine.spawn (wr b "b") in
    Combined.Coroutine.step s1;
    Combined.Coroutine.step s2;
    Combined.Coroutine.step s1;
    Combined.Coroutine.step s2;
    !order

  (* One step, then abandon: the value the register holds after. *)
  let abandon mem ctx =
    let reg = M.alloc mem ~name:"r" in
    let sub =
      Combined.Coroutine.spawn (fun () ->
          St.write ctx reg 1;
          St.write ctx reg 2;
          true)
    in
    Combined.Coroutine.step sub;
    Combined.Coroutine.abandon sub;
    Combined.Coroutine.step sub;
    (* further steps are no-ops *)
    M.read ctx reg
end

module Sim_cases = Coroutine_cases (Backend.Sim_mem)
module Atomic_cases = Coroutine_cases (Backend.Atomic_mem)

(* Run [prog] as the only process of a round-robin schedule. *)
let solo prog =
  let mem = Sim.Memory.create () in
  let sched = Sim.Sched.create [| prog mem |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  sched

let test_coroutine_counts_steps () =
  (* A sub-computation's reads/writes each cost exactly one step of the
     enclosing process, and flips are free. *)
  let sched =
    solo (fun mem ctx -> if Sim_cases.counts mem ctx then 1 else 0)
  in
  checki "result" 1 (Option.get (Sim.Sched.result sched 0));
  checki "two shared steps" 2 (Sim.Sched.steps sched 0);
  checki "two flips" 2 (Sim.Sched.flips sched 0)

let test_coroutine_interleaves () =
  (* Two sub-computations of one process alternate their writes. *)
  let order = ref [] in
  ignore
    (solo (fun mem ctx ->
         order := Sim_cases.interleaves mem ctx;
         0));
  Alcotest.(check (list string)) "alternating" [ "b"; "a"; "b"; "a" ] !order

let test_coroutine_abandon () =
  let sched = solo Sim_cases.abandon in
  checki "only first write landed" 1 (Option.get (Sim.Sched.result sched 0))

let test_coroutine_atomic () =
  (* The same cases on [Atomic.t] registers, in this domain: the
     coroutines need no scheduler, only the [Step] handler. *)
  let mem = Backend.Atomic_mem.create () in
  let ctx =
    Backend.Atomic_mem.ctx ~rng:(Random.State.make [| 7 |]) ~slot:0 ()
  in
  checkb "step accounting result" true (Atomic_cases.counts mem ctx);
  Alcotest.(check (list string))
    "alternating" [ "b"; "a"; "b"; "a" ]
    (Atomic_cases.interleaves mem ctx);
  checki "only first write landed" 1 (Atomic_cases.abandon mem ctx);
  checki "registers" 4 (Backend.Atomic_mem.allocated mem)

(* {1 Combined leader election: generic properties} *)

let test_safety (name, make) () =
  ignore name;
  Tutil.safety_sweep ~trials:20 ~make ~n:16 ~ks:[ 1; 2; 3; 8; 16 ] ()

let test_solo (name, make) () =
  ignore name;
  let sched, _ = Tutil.run_le ~make ~n:8 ~k:1 (Sim.Adversary.round_robin ()) in
  checki "solo wins" 1 (Tutil.count_winners sched)

let test_exhaustive (name, make) () =
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

let test_medium (name, make) () =
  ignore name;
  for seed = 1 to 10 do
    let sched, _ =
      Tutil.run_le ~seed:(Int64.of_int seed) ~make ~n:64 ~k:64
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3)))
    in
    Tutil.check_le_outcome ~crash_free:true sched
  done

(* {1 Theorem 4.1 behaviour} *)

let test_space_is_linear () =
  List.iter
    (fun n ->
      let mem = Sim.Memory.create () in
      let (_ : Leaderelect.Le.t) = Tutil.make "combined-log*" mem ~n in
      let regs = Sim.Memory.allocated mem in
      checkb
        (Printf.sprintf "combined(%d) = %d <= 70n" n regs)
        true
        (regs <= 70 * n))
    [ 16; 64; 256 ]

let test_combined_steps_at_most_twice_a () =
  (* Against an oblivious adversary the combination should stay within a
     small factor of the underlying log* algorithm. *)
  let a_combined =
    Tutil.avg_max_steps ~trials:20 ~make:(Tutil.make "combined-log*") ~n:256
      ~k:256 ()
  in
  let a_plain =
    Tutil.avg_max_steps ~trials:20 ~make:(Tutil.make "log*") ~n:256
      ~k:256 ()
  in
  checkb
    (Printf.sprintf "combined %.1f <= 4x plain %.1f + 40" a_combined a_plain)
    true
    (a_combined <= (4.0 *. a_plain) +. 40.0)

let () =
  let per_impl mk = List.map (fun i -> mk i) combined_impls in
  Alcotest.run "combined"
    [
      ( "coroutine",
        [
          Alcotest.test_case "step accounting" `Quick test_coroutine_counts_steps;
          Alcotest.test_case "interleaving" `Quick test_coroutine_interleaves;
          Alcotest.test_case "abandon" `Quick test_coroutine_abandon;
          Alcotest.test_case "atomic backend" `Quick test_coroutine_atomic;
        ] );
      ( "safety",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_safety (name, make))) );
      ( "solo",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_solo (name, make))) );
      ( "exhaustive",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_exhaustive (name, make))) );
      ( "medium",
        per_impl (fun (name, make) ->
            Alcotest.test_case name `Quick (test_medium (name, make))) );
      ( "theorem-4.1",
        [
          Alcotest.test_case "space Theta(n)" `Quick test_space_is_linear;
          Alcotest.test_case "steps close to A's" `Quick
            test_combined_steps_at_most_twice_a;
        ] );
    ]
