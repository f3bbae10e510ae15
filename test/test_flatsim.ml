(* Differential tests for the flat execution kernel.

   The kernel's whole contract is bit-identity with the effect-handler
   simulator: same seeds + same schedule => same winner, same
   per-process results and step counts, same flip stream ((time, pid,
   bound, outcome) for every draw). 120 seeds per flat-registered
   election under run-to-completion schedules, random-oblivious and
   round-robin schedule parity at n = k and at n = 64, arena-reuse
   identity, and domain-count independence of flat Engine batches. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Outcome extraction ----------------------------------------------- *)

let flip_events sched =
  List.filter_map
    (function
      | Sim.Op.Flip { time; pid; bound; outcome } ->
          Some (time, pid, bound, outcome)
      | _ -> None)
    (Sim.Sched.trace sched)

(* Same run-to-completion schedule as PR 5's differential test: the
   runnable pid earliest in [order] runs until it finishes. *)
let seq_order_adversary order =
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun i pid -> rank.(pid) <- i) order;
  Sim.Adversary.adaptive "seq-order" (fun v ->
      let r = v.Sim.Sched.runnable in
      let best = ref (Sim.Running.get r 0) in
      for i = 1 to Sim.Running.length r - 1 do
        let pid = Sim.Running.get r i in
        if rank.(pid) < rank.(!best) then best := pid
      done;
      Sim.Sched.Schedule !best)

let permutation rng k =
  let order = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

type schedule = Seq of int array | Random of int64 | Rr

let effect_run programs ~seed ~schedule =
  let sched = Sim.Sched.create ~seed ~record_trace:true programs in
  (match schedule with
  | Seq order -> Sim.Sched.run sched (seq_order_adversary order)
  | Random aseed -> Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:aseed)
  | Rr -> Sim.Sched.run sched (Sim.Adversary.round_robin ()));
  ( Sim.Sched.results sched,
    flip_events sched,
    Sim.Sched.time sched,
    Array.init (Sim.Sched.n sched) (Sim.Sched.steps sched) )

let flat_run m ~schedule =
  (match schedule with
  | Seq order -> Flatsim.Machine.run_seq m ~order
  | Random aseed -> Flatsim.Machine.run_random m ~seed:aseed
  | Rr -> Flatsim.Machine.run_rr m);
  ( Flatsim.Machine.results m,
    Flatsim.Machine.flip_log m,
    Flatsim.Machine.time m,
    Array.init (Flatsim.Machine.procs m) (Flatsim.Machine.steps m) )

let check_equal ~ctx (e_res, e_flips, e_time, e_steps)
    (f_res, f_flips, f_time, f_steps) =
  checkb (ctx ^ ": results identical") true (e_res = f_res);
  checkb (ctx ^ ": flip streams identical") true (e_flips = f_flips);
  checki (ctx ^ ": total steps identical") e_time f_time;
  checkb (ctx ^ ": per-process steps identical") true (e_steps = f_steps)

let effect_election ?n entry ~k ~seed ~schedule =
  let n = Option.value n ~default:k in
  let mem = Sim.Memory.create () in
  let le = entry.Rtas.Registry.make mem ~n in
  effect_run (Leaderelect.Le.programs le ~k) ~seed ~schedule

(* --- Satellite 1: 120-seed flat-vs-effect differential ---------------- *)

let test_differential (entry : Rtas.Registry.entry) () =
  let make_flat = Option.get entry.Rtas.Registry.make_flat in
  let k = 4 in
  (* One machine reused across all 120 seeds: the differential also
     exercises the reset discipline. *)
  let m = Flatsim.Machine.create ~record_flips:true ~procs:k (make_flat ~n:k) in
  for seed_int = 1 to 120 do
    let seed = Int64.of_int (seed_int * 7919) in
    let order = permutation (Random.State.make [| seed_int; 0xD1FF |]) k in
    let schedule = Seq order in
    let e = effect_election entry ~k ~seed ~schedule in
    Flatsim.Machine.reset ~seed m;
    let f = flat_run m ~schedule in
    check_equal ~ctx:(Printf.sprintf "seed %d" seed_int) e f;
    let e_res, _, _, _ = e in
    checki "exactly one winner" 1
      (Array.fold_left (fun a r -> if r = Some 1 then a + 1 else a) 0 e_res)
  done

(* Schedule parity beyond run-to-completion: the random-oblivious and
   round-robin loops inside the kernel must replicate the adversary
   decision procedures draw-for-draw. *)
let test_schedule_parity (entry : Rtas.Registry.entry) () =
  let make_flat = Option.get entry.Rtas.Registry.make_flat in
  List.iter
    (fun k ->
      let m =
        Flatsim.Machine.create ~record_flips:true ~procs:k (make_flat ~n:k)
      in
      for seed_int = 1 to 30 do
        let seed = Sim.Rng.derive (Int64.of_int seed_int) ~stream:0 in
        let aseed = Sim.Rng.derive (Int64.of_int seed_int) ~stream:1 in
        List.iter
          (fun schedule ->
            let e = effect_election entry ~k ~seed ~schedule in
            Flatsim.Machine.reset ~seed m;
            let f = flat_run m ~schedule in
            check_equal ~ctx:(Printf.sprintf "k=%d seed %d" k seed_int) e f)
          [ Random aseed; Rr ]
      done)
    [ 2; 5; 8 ]

(* At n = 64 the sift schedule is non-empty (it is empty for n <= 8,
   the sizes above), so these cases run sifting levels, poison's decay
   schedule and log*'s rounds at a system size above the contention.
   One capacity-64 machine shrinks to each k. *)
let test_n64_parity (entry : Rtas.Registry.entry) () =
  let make_flat = Option.get entry.Rtas.Registry.make_flat in
  let n = 64 in
  let m = Flatsim.Machine.create ~record_flips:true ~procs:n (make_flat ~n) in
  List.iter
    (fun k ->
      for seed_int = 1 to 30 do
        let seed = Sim.Rng.derive (Int64.of_int seed_int) ~stream:0 in
        let aseed = Sim.Rng.derive (Int64.of_int seed_int) ~stream:1 in
        List.iter
          (fun schedule ->
            let e = effect_election entry ~n ~k ~seed ~schedule in
            Flatsim.Machine.reset ~seed ~procs:k m;
            let f = flat_run m ~schedule in
            check_equal
              ~ctx:(Printf.sprintf "n=64 k=%d seed %d" k seed_int)
              e f)
          [ Random aseed; Rr ]
      done)
    [ 1; 2; 16; 64 ]

(* --- Arena reuse: reset runs are identical to fresh machines ---------- *)

let test_reset_identity () =
  List.iter
    (fun (entry : Rtas.Registry.entry) ->
      let make_flat = Option.get entry.Rtas.Registry.make_flat in
      let k = 6 in
      let reused =
        Flatsim.Machine.create ~record_flips:true ~procs:k (make_flat ~n:k)
      in
      for seed_int = 1 to 25 do
        let seed = Int64.of_int ((seed_int * 37) + 5) in
        let fresh =
          Flatsim.Machine.create ~seed ~record_flips:true ~procs:k
            (make_flat ~n:k)
        in
        Flatsim.Machine.run_random fresh ~seed:(Sim.Rng.derive seed ~stream:1);
        Flatsim.Machine.reset ~seed reused;
        Flatsim.Machine.run_random reused ~seed:(Sim.Rng.derive seed ~stream:1);
        checkb "reused = fresh (results)" true
          (Flatsim.Machine.results fresh = Flatsim.Machine.results reused);
        checkb "reused = fresh (flips)" true
          (Flatsim.Machine.flip_log fresh = Flatsim.Machine.flip_log reused)
      done)
    (Rtas.Registry.flat ())

(* Shrinking resets: a capacity-c machine reset to fewer procs behaves
   like a fresh machine of that size (the service driver's per-round
   contender counts). *)
let test_reset_shrink () =
  let prog = Flatsim.Programs.tournament ~n:8 in
  let reused = Flatsim.Machine.create ~record_flips:true ~procs:8 prog in
  for seed_int = 1 to 25 do
    let seed = Int64.of_int (seed_int * 131) in
    let k = 2 + (seed_int mod 7) in
    let fresh = Flatsim.Machine.create ~seed ~record_flips:true ~procs:k prog in
    Flatsim.Machine.run_rr fresh;
    Flatsim.Machine.reset ~seed ~procs:k reused;
    Flatsim.Machine.run_rr reused;
    checki "active procs" k (Flatsim.Machine.procs reused);
    checkb "shrunk reset = fresh (results)" true
      (Flatsim.Machine.results fresh = Flatsim.Machine.results reused);
    checkb "shrunk reset = fresh (flips)" true
      (Flatsim.Machine.flip_log fresh = Flatsim.Machine.flip_log reused)
  done

(* --- Engine dispatch: flat trials are domain-count independent -------- *)

let flat_engine_outcomes ~domains ~trials =
  let prog = Flatsim.Programs.logstar ~n:8 in
  let out = Array.make trials (-1) in
  let (_ : Engine.worker_stats array) =
    Engine.run_into ~domains ~trials ~seed:0xF1A7L
      ~local:(fun () -> Flatsim.Machine.create ~procs:8 prog)
      (fun m ~trial ~seed ->
        Flatsim.Machine.reset ~seed:(Sim.Rng.derive seed ~stream:0) m;
        Flatsim.Machine.run_random m ~seed:(Sim.Rng.derive seed ~stream:1);
        let w = ref (-1) in
        for pid = 0 to 7 do
          if Flatsim.Machine.result m pid = Some 1 then w := pid
        done;
        out.(trial) <- !w)
  in
  out

let test_engine_domain_independence () =
  let one = flat_engine_outcomes ~domains:1 ~trials:64 in
  let two = flat_engine_outcomes ~domains:2 ~trials:64 in
  Array.iter (fun w -> checkb "has a winner" true (w >= 0)) one;
  checkb "1-domain = 2-domain" true (one = two)

(* --- The kernel's zero-allocation claim ------------------------------- *)

let test_zero_allocation_steady_state () =
  (* [Gc.minor_words ()] counts exactly; [Gc.quick_stat]'s field only
     moves at a minor collection. The seeds are derived (and boxed)
     before the measured window, so it holds the kernel's own
     allocation and nothing of the loop's. *)
  let seeds = Array.init 50 (fun i -> Int64.of_int (i + 1)) in
  let aseeds = Array.map (fun s -> Sim.Rng.derive s ~stream:1) seeds in
  let schedules =
    [
      ("random", fun m i -> Flatsim.Machine.run_random m ~seed:aseeds.(i));
      ("round-robin", fun m _ -> Flatsim.Machine.run_rr m);
    ]
  in
  List.iter
    (fun ((entry : Rtas.Registry.entry), (schedule, run)) ->
      let make_flat = Option.get entry.Rtas.Registry.make_flat in
      let m = Flatsim.Machine.create ~procs:32 (make_flat ~n:32) in
      let trial i =
        Flatsim.Machine.reset ~seed:seeds.(i) m;
        run m i
      in
      (* Warm up, then measure: steady-state trials must allocate nothing
         (the minor-words delta of 50 trials stays under one small
         constant's worth of incidental allocation). *)
      for i = 0 to 9 do
        trial i
      done;
      let w0 = Gc.minor_words () in
      for i = 0 to 49 do
        trial i
      done;
      let dw = Gc.minor_words () -. w0 in
      checkb
        (Printf.sprintf
           "%s, %s: steady-state trials allocate nothing (got %.1f words)"
           entry.Rtas.Registry.name schedule dw)
        true
        (dw < 100.0))
    (List.concat_map
       (fun e -> List.map (fun s -> (e, s)) schedules)
       (Rtas.Registry.flat ()))

let differential_cases =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      Alcotest.test_case e.Rtas.Registry.name `Quick (test_differential e))
    (Rtas.Registry.flat ())

let schedule_cases =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      Alcotest.test_case e.Rtas.Registry.name `Quick (test_schedule_parity e))
    (Rtas.Registry.flat ())

let n64_cases =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      Alcotest.test_case e.Rtas.Registry.name `Quick (test_n64_parity e))
    (Rtas.Registry.flat ())

let test_flat_registry_coverage () =
  let names = Rtas.Registry.flat_names () in
  List.iter
    (fun required ->
      checkb (required ^ " is flat-registered") true (List.mem required names))
    [ "tournament"; "log*"; "sift"; "poison" ]

let () =
  Alcotest.run "flatsim"
    [
      ("differential-120", differential_cases);
      ("schedule-parity", schedule_cases);
      ("n64-parity", n64_cases);
      ( "arena-reuse",
        [
          Alcotest.test_case "reset = fresh" `Quick test_reset_identity;
          Alcotest.test_case "shrinking reset" `Quick test_reset_shrink;
        ] );
      ( "engine",
        [
          Alcotest.test_case "domain independence" `Quick
            test_engine_domain_independence;
        ] );
      ( "gc",
        [
          Alcotest.test_case "zero steady-state allocation" `Quick
            test_zero_allocation_steady_state;
        ] );
      ( "registry",
        [
          Alcotest.test_case "hot elections flat-registered" `Quick
            test_flat_registry_coverage;
        ] );
    ]
