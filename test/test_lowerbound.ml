(* Tests for the lower-bound machinery (Sections 5-6). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 log* and iterated rates} *)

let test_log_star_values () =
  checki "log* 1" 0 (Lowerbound.Logstar.log_star 1.0);
  checki "log* 2" 1 (Lowerbound.Logstar.log_star 2.0);
  checki "log* 4" 2 (Lowerbound.Logstar.log_star 4.0);
  checki "log* 16" 3 (Lowerbound.Logstar.log_star 16.0);
  checki "log* 65536" 4 (Lowerbound.Logstar.log_star 65536.0);
  checki "log* 2^64" 5 (Lowerbound.Logstar.log_star (2.0 ** 64.0))

let test_iterations_logstar_rate () =
  (* The chain of Section 2.1 shrinks to at most min(f(N)-1, N-1) per
     level (the splitter always eliminates someone), so with
     f(k) = 2 log k + 6 the level count is O(log* k) plus the constant
     tail below f's fixed point: tiny, and growing extremely slowly. *)
  let iters k =
    Lowerbound.Logstar.iterations_to_constant
      ~f:(fun x ->
        Float.min (x -. 1.0) ((2.0 *. Lowerbound.Logstar.log2 x) +. 5.0))
      k
  in
  let i256 = iters 256.0 and i1m = iters 1_000_000.0 and i1g = iters 1e18 in
  checkb "small" true (i256 <= 20);
  checkb "slow growth" true (i1g <= i1m + 3);
  checkb "monotone-ish" true (i256 <= i1m && i1m <= i1g)

let test_iterations_sqrt_rate () =
  (* f(k) = 2 sqrt k gives O(log log k) iterations. *)
  let iters k =
    Lowerbound.Logstar.iterations_to_constant
      ~f:(fun x -> 2.0 *. sqrt x)
      ~floor_:16.0 k
  in
  checkb "loglog-ish for 2^20" true (iters (2.0 ** 20.0) <= 8);
  checkb "loglog-ish for 2^40" true (iters (2.0 ** 40.0) <= 12)

(* {1 Covering recurrence (Theorem 5.1 / Claim 5.5)}

   Claim 5.5 itself is checked by E7's table in test_claims. *)

let test_f_base () =
  checki "f(0) = n" 64 (Lowerbound.Covering.f ~n:64 0);
  checki "f(1) = n - 1 + 1... " 64 (Lowerbound.Covering.f ~n:64 1)

let test_f_monotone_nonincreasing () =
  let n = 128 in
  for k = 0 to n - 2 do
    checkb "f never increases" true
      (Lowerbound.Covering.f ~n (k + 1) <= Lowerbound.Covering.f ~n k)
  done

let test_f_at_n_minus_4 () =
  (* f(n-4) = 4 (log2 n - 1) for powers of two. *)
  List.iter
    (fun (n, log2n) ->
      checki
        (Printf.sprintf "f(%d - 4)" n)
        (4 * (log2n - 1))
        (Lowerbound.Covering.f ~n (n - 4)))
    [ (8, 3); (16, 4); (64, 6); (256, 8); (4096, 12); (65536, 16) ]

let test_register_lower_bound () =
  List.iter
    (fun (n, log2n) ->
      checki
        (Printf.sprintf "bound(%d) = log n - 1" n)
        (log2n - 1)
        (Lowerbound.Covering.register_lower_bound ~n))
    [ (8, 3); (64, 6); (1024, 10); (65536, 16) ]

let test_interval_of () =
  let n = 64 in
  checki "k=0 in I(0)" 0 (Option.get (Lowerbound.Covering.interval_of ~n 0));
  checki "k=31 in I(0)" 0 (Option.get (Lowerbound.Covering.interval_of ~n 31));
  checki "k=32 in I(1)" 1 (Option.get (Lowerbound.Covering.interval_of ~n 32));
  checki "k=60 in I(4)" 4 (Option.get (Lowerbound.Covering.interval_of ~n 60))

(* {1 Covering harness on real implementations} *)

let harness_impls =
  [
    ("log*", Tutil.make "log*");
    ("tournament", Tutil.make "tournament");
    ("ratrace-lean", Tutil.make "ratrace-lean");
  ]

let test_base_round (name, make) () =
  ignore name;
  List.iter
    (fun n ->
      let r = Lowerbound.Covering.base_round ~make ~n ~seed:3L in
      checki "nobody finished before writing" 0 r.Lowerbound.Covering.finished_early;
      checki "everyone poised to write" n r.Lowerbound.Covering.poised_writers;
      checkb "at least one register covered" true
        (r.Lowerbound.Covering.distinct_covered >= 1))
    [ 4; 16; 64 ]

let test_written_registers_exceed_bound () =
  (* Every implementation writes at least log2 n - 1 distinct registers
     in a full election — the Omega(log n) bound is comfortably met. *)
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let w = Lowerbound.Covering.written_registers ~make ~n ~seed:7L in
          let bound = Lowerbound.Covering.register_lower_bound ~n in
          checkb
            (Printf.sprintf "%s at n=%d writes %d >= %d" name n w bound)
            true (w >= bound))
        [ 8; 32; 64 ])
    harness_impls

(* {1 Covering executor (Lemma 5.4 rounds)} *)

let test_covering_exec_tournament () =
  (* Tournament covers n distinct registers at the base configuration:
     max cover is 1, so no rounds are needed and the covered count far
     exceeds the bound. *)
  List.iter
    (fun n ->
      let r =
        Lowerbound.Covering_exec.run ~make:(Tutil.make "tournament") ~n
          ~seed:3L ()
      in
      checki "no rounds needed" 0 r.Lowerbound.Covering_exec.rounds;
      checki "n registers covered" n r.Lowerbound.Covering_exec.final_covered;
      checki "no anomalies" 0 r.Lowerbound.Covering_exec.anomalies)
    [ 8; 32 ]

let test_covering_exec_ratrace_lean () =
  (* The interesting case: everyone piles onto the root splitter, and the
     rounds must spread the covers until max cover <= 4 while keeping at
     least f(n-4) representatives and covering at least the bound. *)
  List.iter
    (fun n ->
      let r =
        Lowerbound.Covering_exec.run ~make:(Tutil.make "ratrace-lean") ~n
          ~seed:7L ()
      in
      checkb "made progress" true (r.Lowerbound.Covering_exec.rounds > 0);
      checkb "max cover driven down" true
        (r.Lowerbound.Covering_exec.max_cover <= 4);
      checkb
        (Printf.sprintf "covered %d >= bound %d"
           r.Lowerbound.Covering_exec.final_covered
           (Lowerbound.Covering.register_lower_bound ~n))
        true
        (r.Lowerbound.Covering_exec.final_covered
        >= Lowerbound.Covering.register_lower_bound ~n);
      checki "claim 5.3 never contradicted" 0
        r.Lowerbound.Covering_exec.anomalies)
    [ 8; 16; 32; 64 ]

let test_covering_exec_reps_dominate_f () =
  (* Lemma 5.4(e): the number of surviving representatives dominates the
     f recurrence at the corresponding round. *)
  let n = 32 in
  let r =
    Lowerbound.Covering_exec.run ~make:(Tutil.make "ratrace-lean") ~n ~seed:5L ()
  in
  let k = min (n - 1) r.Lowerbound.Covering_exec.rounds in
  checkb
    (Printf.sprintf "reps %d >= f(%d) = %d" r.Lowerbound.Covering_exec.final_reps
       k (Lowerbound.Covering.f ~n k))
    true
    (r.Lowerbound.Covering_exec.final_reps >= Lowerbound.Covering.f ~n k - 1)

let test_covering_exec_deterministic () =
  let run () =
    Lowerbound.Covering_exec.run ~make:(Tutil.make "ratrace-lean") ~n:16
      ~seed:9L ()
  in
  let a = run () and b = run () in
  checki "same rounds" a.Lowerbound.Covering_exec.rounds b.Lowerbound.Covering_exec.rounds;
  checki "same reps" a.Lowerbound.Covering_exec.final_reps b.Lowerbound.Covering_exec.final_reps;
  checki "same covered" a.Lowerbound.Covering_exec.final_covered
    b.Lowerbound.Covering_exec.final_covered

(* {1 Yao 2-process experiment (Theorem 6.1)} *)

let tas_pair () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  let tas =
    Primitives.Tas.create mem ~elect:(fun ctx ->
        Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
  in
  Array.init 2 (fun _ ctx -> Primitives.Tas.apply tas ctx)

let test_schedule_count () =
  checki "C(2,1)" 2 (List.length (Lowerbound.Yao.schedules ~t:1));
  checki "C(4,2)" 6 (List.length (Lowerbound.Yao.schedules ~t:2));
  checki "C(8,4)" 70 (List.length (Lowerbound.Yao.schedules ~t:4))

let test_schedules_balanced () =
  List.iter
    (fun s ->
      let ones = Array.fold_left ( + ) 0 s in
      checki "balanced" 3 ones)
    (Lowerbound.Yao.schedules ~t:3)

let test_yao_bound_respected () =
  (* max over schedules of Pr[>= t steps] must dominate 1/4^t. *)
  List.iter
    (fun t ->
      let p = Lowerbound.Yao.measure ~trials:150 ~make:tas_pair ~t () in
      checkb
        (Printf.sprintf "t=%d: %.3f >= %.5f" t p.Lowerbound.Yao.max_prob
           p.Lowerbound.Yao.bound)
        true
        (p.Lowerbound.Yao.max_prob >= p.Lowerbound.Yao.bound))
    [ 1; 2; 3; 4; 5 ]

let test_yao_decays () =
  (* The adversary's success probability decays with t (wait-freedom),
     so both curves fall; check the measured one is eventually small. *)
  let p = Lowerbound.Yao.measure ~trials:300 ~make:tas_pair ~t:40 () in
  checkb
    (Printf.sprintf "Pr[>= 40 steps] = %.3f < 0.9" p.Lowerbound.Yao.max_prob)
    true
    (p.Lowerbound.Yao.max_prob < 0.9)

let () =
  Alcotest.run "lowerbound"
    [
      ( "logstar",
        [
          Alcotest.test_case "values" `Quick test_log_star_values;
          Alcotest.test_case "iterations, log rate" `Quick test_iterations_logstar_rate;
          Alcotest.test_case "iterations, sqrt rate" `Quick test_iterations_sqrt_rate;
        ] );
      ( "covering",
        [
          Alcotest.test_case "f base" `Quick test_f_base;
          Alcotest.test_case "f nonincreasing" `Quick test_f_monotone_nonincreasing;
          Alcotest.test_case "f(n-4) closed form" `Quick test_f_at_n_minus_4;
          Alcotest.test_case "register bound" `Quick test_register_lower_bound;
          Alcotest.test_case "intervals" `Quick test_interval_of;
        ] );
      ( "covering-harness",
        List.map
          (fun (name, make) ->
            Alcotest.test_case name `Quick (test_base_round (name, make)))
          harness_impls
        @ [
            Alcotest.test_case "written registers" `Quick
              test_written_registers_exceed_bound;
          ] );
      ( "covering-exec",
        [
          Alcotest.test_case "tournament base" `Quick test_covering_exec_tournament;
          Alcotest.test_case "ratrace-lean rounds" `Quick
            test_covering_exec_ratrace_lean;
          Alcotest.test_case "reps dominate f" `Quick
            test_covering_exec_reps_dominate_f;
          Alcotest.test_case "deterministic" `Quick test_covering_exec_deterministic;
        ] );
      ( "yao",
        [
          Alcotest.test_case "schedule count" `Quick test_schedule_count;
          Alcotest.test_case "schedules balanced" `Quick test_schedules_balanced;
          Alcotest.test_case "bound respected" `Slow test_yao_bound_respected;
          Alcotest.test_case "decays with t" `Quick test_yao_decays;
        ] );
    ]
