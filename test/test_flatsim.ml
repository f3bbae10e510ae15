(* Differential tests for the flat execution kernel.

   The kernel's whole contract is bit-identity with the effect-handler
   simulator: same seeds + same schedule => same winner, same
   per-process results, same flip stream ((time, pid, bound, outcome)
   for every draw). Satellite 1 of ISSUE 7: 120 seeds per
   flat-registered election under run-to-completion schedules, plus
   random-oblivious and round-robin schedule parity, arena-reuse
   identity, and domain-count independence of flat Engine batches. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Frng vs Sim.Rng -------------------------------------------------- *)

let test_frng_parity () =
  let seeds = [ 0L; 1L; 0x5EEDL; 0xDEADBEEFL; Int64.min_int; -1L ] in
  List.iter
    (fun seed ->
      let s = Sim.Rng.create seed and f = Flatsim.Frng.create seed in
      for i = 1 to 2_000 do
        let bound = 1 + (i mod 97) in
        checki "int draw" (Sim.Rng.int s bound) (Flatsim.Frng.int f bound)
      done;
      (* interleave geometric draws on the same stream *)
      for _ = 1 to 2_000 do
        checki "geometric draw"
          (Sim.Rng.geometric_capped s 9)
          (Flatsim.Frng.geometric_capped f 9)
      done;
      Sim.Rng.reseed s 42L;
      Flatsim.Frng.reseed f 42L;
      for _ = 1 to 200 do
        checki "after reseed" (Sim.Rng.int s 1_000_000) (Flatsim.Frng.int f 1_000_000)
      done)
    seeds

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
      let best = ref v.Sim.Sched.runnable.(0) in
      Array.iter
        (fun pid -> if rank.(pid) < rank.(!best) then best := pid)
        v.Sim.Sched.runnable;
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
  (Sim.Sched.results sched, flip_events sched, Sim.Sched.time sched)

let flat_run m ~schedule =
  (match schedule with
  | Seq order -> Flatsim.Machine.run_seq m ~order
  | Random aseed -> Flatsim.Machine.run_random m ~seed:aseed
  | Rr -> Flatsim.Machine.run_rr m);
  (Flatsim.Machine.results m, Flatsim.Machine.flip_log m, Flatsim.Machine.time m)

let check_equal ~ctx (e_res, e_flips, e_time) (f_res, f_flips, f_time) =
  checkb (ctx ^ ": results identical") true (e_res = f_res);
  checkb (ctx ^ ": flip streams identical") true (e_flips = f_flips);
  checki (ctx ^ ": total steps identical") e_time f_time

let effect_election entry ~k ~seed ~schedule =
  let mem = Sim.Memory.create () in
  let le = entry.Rtas.Registry.make mem ~n:k in
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
    let e_res, _, _ = e in
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

(* The 2-process TAS base: doorway around a duel, ports by pid. *)
let effect_tas ~seed ~schedule =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  let tas =
    Primitives.Tas.create mem ~elect:(fun ctx ->
        Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
  in
  effect_run (Array.init 2 (fun _ ctx -> Primitives.Tas.apply tas ctx)) ~seed
    ~schedule

let test_tas2_differential () =
  let m = Flatsim.Machine.create ~record_flips:true ~procs:2 Flatsim.Programs.tas2 in
  for seed_int = 1 to 120 do
    let seed = Int64.of_int (seed_int * 7919) in
    let aseed = Sim.Rng.derive seed ~stream:1 in
    List.iter
      (fun schedule ->
        let e = effect_tas ~seed ~schedule in
        Flatsim.Machine.reset ~seed m;
        let f = flat_run m ~schedule in
        check_equal ~ctx:(Printf.sprintf "tas2 seed %d" seed_int) e f;
        let e_res, _, _ = e in
        checki "exactly one 0 (TAS winner)" 1
          (Array.fold_left (fun a r -> if r = Some 0 then a + 1 else a) 0 e_res))
      [ Seq [| 0; 1 |]; Seq [| 1; 0 |]; Random aseed; Rr ]
  done

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
  List.iter
    (fun (entry : Rtas.Registry.entry) ->
      let make_flat = Option.get entry.Rtas.Registry.make_flat in
      let m = Flatsim.Machine.create ~procs:32 (make_flat ~n:32) in
      let trial seed =
        Flatsim.Machine.reset ~seed m;
        Flatsim.Machine.run_random m ~seed:(Sim.Rng.derive seed ~stream:1)
      in
      (* Warm up, then measure: steady-state trials must allocate nothing
         (the minor-words delta of 50 trials stays under one small
         constant's worth of incidental allocation). *)
      for i = 1 to 10 do
        trial (Int64.of_int i)
      done;
      let s0 = (Gc.quick_stat ()).Gc.minor_words in
      for i = 1 to 50 do
        trial (Int64.of_int i)
      done;
      let dw = (Gc.quick_stat ()).Gc.minor_words -. s0 in
      checkb
        (Printf.sprintf "%s: steady-state trials allocate nothing (got %.1f words)"
           entry.Rtas.Registry.name dw)
        true
        (dw < 100.0))
    (Rtas.Registry.flat ())

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

let test_flat_registry_coverage () =
  let names = Rtas.Registry.flat_names () in
  List.iter
    (fun required ->
      checkb (required ^ " is flat-registered") true (List.mem required names))
    [ "tournament"; "log*"; "sift"; "poison" ]

let () =
  Alcotest.run "flatsim"
    [
      ("frng", [ Alcotest.test_case "parity with Sim.Rng" `Quick test_frng_parity ]);
      ("differential-120", differential_cases);
      ("schedule-parity", schedule_cases);
      ( "base-cases",
        [
          Alcotest.test_case "tas2" `Quick test_tas2_differential;
        ] );
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
