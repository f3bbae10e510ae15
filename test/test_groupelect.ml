(* Tests for the Group Election implementations (Section 2). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ge_programs make k () =
  let mem = Sim.Memory.create () in
  let ge : Groupelect.Ge.t = make mem in
  Array.init k (fun _ ctx -> if ge.Groupelect.Ge.elect ctx then 1 else 0)

let count_elected sched =
  Array.fold_left
    (fun acc r -> match r with Some 1 -> acc + 1 | _ -> acc)
    0
    (Sim.Sched.results sched)

let logstar_make n mem = Groupelect.Ge_logstar.create mem ~n

(* {1 Figure 1 GroupElect} *)

let test_logstar_solo_elected () =
  let sched = Sim.Sched.create (ge_programs (logstar_make 16) 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo participant elected" 1 (count_elected sched)

let test_logstar_at_least_one () =
  for k = 1 to 12 do
    for seed = 1 to 60 do
      let sched =
        Sim.Sched.create ~seed:(Int64.of_int seed)
          (ge_programs (logstar_make 64) k ())
      in
      Sim.Sched.run sched
        (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 3 + k)));
      checkb "at least one elected" true (count_elected sched >= 1)
    done
  done

let test_logstar_at_least_one_exhaustive () =
  let n =
    Sim.Explore.explore ~depth:10 ~programs:(ge_programs (logstar_make 4) 2)
      ~check:(fun sched ->
        if Array.for_all Option.is_some (Sim.Sched.results sched) then
          if count_elected sched < 1 then Alcotest.fail "nobody elected")
      ()
  in
  checkb "explored" true (n > 100)

let test_logstar_late_arrival_filtered () =
  (* A process that reads the flag after someone set it leaves with
     [false] in one step. *)
  let sched = Sim.Sched.create (ge_programs (logstar_make 16) 2 ()) in
  Sim.Sched.run sched
    (Sim.Adversary.fixed_schedule ~then_halt:false [| 0; 0; 0; 0; 1; 1; 1; 1 |]);
  checki "first is elected" 1 (Option.get (Sim.Sched.result sched 0));
  checki "late arrival filtered" 0 (Option.get (Sim.Sched.result sched 1));
  checki "late arrival used one step" 1 (Sim.Sched.steps sched 1)

let test_logstar_step_complexity () =
  (* Every participant takes at most 4 shared-memory steps. *)
  for seed = 1 to 50 do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int seed)
        (ge_programs (logstar_make 256) 32 ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 5)));
    checkb "O(1) steps" true (Sim.Sched.max_steps sched <= 4)
  done

let test_logstar_space () =
  let mem = Sim.Memory.create () in
  let _ = Groupelect.Ge_logstar.create mem ~n:1024 in
  (* l = 10, so 11 array cells + flag. *)
  checki "registers" 12 (Sim.Memory.allocated mem);
  checki "registers helper agrees" 12 (Groupelect.Ge_logstar.registers ~n:1024)

(* Lemma 2.2's performance bound f(k) <= 2 log2 k + 6 is checked by
   E1's table in test_claims. *)

(* {1 Sifting GroupElect} *)

let sift_make p mem = Groupelect.Ge_sift.create mem ~write_prob:p

let test_sift_solo_elected () =
  let sched = Sim.Sched.create (ge_programs (sift_make 0.3) 1 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "solo participant elected" 1 (count_elected sched)

let test_sift_at_least_one () =
  List.iter
    (fun p ->
      for seed = 1 to 100 do
        let sched =
          Sim.Sched.create ~seed:(Int64.of_int seed)
            (ge_programs (sift_make p) 8 ())
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 7)));
        checkb "at least one elected" true (count_elected sched >= 1)
      done)
    [ 0.01; 0.2; 0.9 ]

let test_sift_writers_always_elected () =
  (* With write_prob = 1 everybody writes, hence everybody is elected. *)
  let sched = Sim.Sched.create (ge_programs (sift_make 1.0) 6 ()) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "all elected" 6 (count_elected sched)

let test_sift_performance () =
  (* E[elected] <= p*k + 1/p + 1, measured. For k = 100, p = 0.1: ~20. *)
  let k = 100 and p = 0.1 in
  let trials = 300 in
  let total = ref 0 in
  for seed = 1 to trials do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int (seed * 13))
        (ge_programs (sift_make p) k ())
    in
    Sim.Sched.run sched (Sim.Adversary.round_robin ());
    total := !total + count_elected sched
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let bound = (p *. float_of_int k) +. (1.0 /. p) +. 1.0 in
  checkb (Printf.sprintf "f = %.2f <= %.2f" mean bound) true (mean <= bound)

let test_sift_space () =
  let mem = Sim.Memory.create () in
  let _ = Groupelect.Ge_sift.create mem ~write_prob:0.5 in
  checki "one register" 1 (Sim.Memory.allocated mem)

let test_sift_invalid_prob () =
  let mem = Sim.Memory.create () in
  checkb "rejects 0" true
    (try
       ignore (Groupelect.Ge_sift.create mem ~write_prob:0.0);
       false
     with Invalid_argument _ -> true);
  checkb "rejects > 1" true
    (try
       ignore (Groupelect.Ge_sift.create mem ~write_prob:1.5);
       false
     with Invalid_argument _ -> true)

let test_sift_schedule_shape () =
  (* Theta(log log n) levels: small for any practical n, growing with n. *)
  let l1 = Array.length (Groupelect.Ge_sift.probability_schedule ~n:16) in
  let l2 = Array.length (Groupelect.Ge_sift.probability_schedule ~n:65536) in
  let l3 = Array.length (Groupelect.Ge_sift.probability_schedule ~n:(1 lsl 30)) in
  checkb "nonempty for 16" true (l1 >= 1);
  checkb "monotone" true (l1 <= l2 && l2 <= l3);
  checkb "tiny even for 2^30" true (l3 <= 12);
  Array.iter
    (fun p -> checkb "probability in (0,1]" true (p > 0.0 && p <= 1.0))
    (Groupelect.Ge_sift.probability_schedule ~n:65536)

let test_sift_sifts () =
  (* One sifting level with p = 1/sqrt k should cut the crowd roughly to
     2 sqrt k; check it at least halves k = 256 on average. *)
  let k = 256 in
  let p = 1.0 /. sqrt (float_of_int k) in
  let trials = 200 in
  let total = ref 0 in
  for seed = 1 to trials do
    let sched =
      Sim.Sched.create ~seed:(Int64.of_int (seed * 29))
        (ge_programs (sift_make p) k ())
    in
    Sim.Sched.run sched
      (Sim.Adversary.random_oblivious ~seed:(Int64.of_int (seed * 37)));
    total := !total + count_elected sched
  done;
  let mean = float_of_int !total /. float_of_int trials in
  checkb (Printf.sprintf "mean %.1f < k/4" mean) true (mean < float_of_int k /. 4.0)

(* {1 Dummy GroupElect} *)

let test_dummy_elects_everyone () =
  let mem = Sim.Memory.create () in
  let ge = Groupelect.Ge_dummy.create () in
  let sched =
    Sim.Sched.create
      (Array.init 5 (fun _ ctx -> if ge.Groupelect.Ge.elect ctx then 1 else 0))
  in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "all elected" 5 (count_elected sched);
  checki "no registers" 0 (Sim.Memory.allocated mem);
  checki "no steps" 0 (Sim.Sched.time sched)

let () =
  Alcotest.run "groupelect"
    [
      ( "ge-logstar",
        [
          Alcotest.test_case "solo elected" `Quick test_logstar_solo_elected;
          Alcotest.test_case "at least one elected" `Quick test_logstar_at_least_one;
          Alcotest.test_case "at least one (exhaustive)" `Quick
            test_logstar_at_least_one_exhaustive;
          Alcotest.test_case "doorway filters late arrivals" `Quick
            test_logstar_late_arrival_filtered;
          Alcotest.test_case "O(1) steps" `Quick test_logstar_step_complexity;
          Alcotest.test_case "O(log n) space" `Quick test_logstar_space;
        ] );
      ( "ge-sift",
        [
          Alcotest.test_case "solo elected" `Quick test_sift_solo_elected;
          Alcotest.test_case "at least one elected" `Quick test_sift_at_least_one;
          Alcotest.test_case "writers elected" `Quick test_sift_writers_always_elected;
          Alcotest.test_case "performance bound" `Quick test_sift_performance;
          Alcotest.test_case "one register" `Quick test_sift_space;
          Alcotest.test_case "invalid probability" `Quick test_sift_invalid_prob;
          Alcotest.test_case "schedule shape" `Quick test_sift_schedule_shape;
          Alcotest.test_case "one level sifts" `Quick test_sift_sifts;
        ] );
      ( "ge-dummy",
        [ Alcotest.test_case "elects everyone free" `Quick test_dummy_elects_everyone ] );
    ]
