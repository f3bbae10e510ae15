(* Tests for the shared-memory simulator substrate. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sim.Rng.next a) (Sim.Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.next a <> Sim.Rng.next b then differs := true
  done;
  checkb "streams differ" true !differs

let test_rng_int_bounds () =
  let r = Sim.Rng.create 7L in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let v = Sim.Rng.int r bound in
      checkb "in range" true (v >= 0 && v < bound)
    done
  done

let test_rng_int_invalid () =
  let r = Sim.Rng.create 7L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_rng_copy_independent () =
  let a = Sim.Rng.create 9L in
  ignore (Sim.Rng.next a);
  let b = Sim.Rng.copy a in
  let va = Sim.Rng.next a in
  let vb = Sim.Rng.next b in
  check Alcotest.int64 "copy continues identically" va vb;
  ignore (Sim.Rng.next a);
  (* advancing [a] further must not touch [b] *)
  let va2 = Sim.Rng.next a and vb2 = Sim.Rng.next b in
  checkb "then they diverge in position" true (va2 <> vb2 || va2 = vb2)

let test_rng_float_range () =
  let r = Sim.Rng.create 11L in
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_bool_balanced () =
  let r = Sim.Rng.create 13L in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Sim.Rng.bool r then incr trues
  done;
  checkb "roughly balanced" true (abs (!trues - (n / 2)) < n / 10)

let test_rng_geometric_support () =
  let r = Sim.Rng.create 17L in
  for _ = 1 to 2000 do
    let v = Sim.Rng.geometric_capped r 8 in
    checkb "support" true (v >= 1 && v <= 8)
  done

let test_rng_geometric_distribution () =
  (* Pr(x = 1) = 1/2; mean is < 2. *)
  let r = Sim.Rng.create 19L in
  let n = 20_000 in
  let ones = ref 0 and sum = ref 0 in
  for _ = 1 to n do
    let v = Sim.Rng.geometric_capped r 20 in
    if v = 1 then incr ones;
    sum := !sum + v
  done;
  let p1 = float_of_int !ones /. float_of_int n in
  checkb "Pr(x=1) ~ 0.5" true (abs_float (p1 -. 0.5) < 0.02);
  let mean = float_of_int !sum /. float_of_int n in
  checkb "mean ~ 2" true (abs_float (mean -. 2.0) < 0.1)

let test_rng_geometric_cap () =
  let r = Sim.Rng.create 21L in
  for _ = 1 to 100 do
    checki "l=1 always 1" 1 (Sim.Rng.geometric_capped r 1)
  done

let test_rng_derive_adjacent_disjoint () =
  (* Adjacent derived streams back the per-trial seeds of the engine:
     stream t and stream t+1 must not share any outputs in a long
     prefix, or neighbouring trials would be correlated. *)
  let seed = 0x0E17A5EEDL in
  let prefix = 512 in
  for stream = 0 to 7 do
    let a = Sim.Rng.create (Sim.Rng.derive seed ~stream) in
    let b = Sim.Rng.create (Sim.Rng.derive seed ~stream:(stream + 1)) in
    let seen = Hashtbl.create (2 * prefix) in
    for _ = 1 to prefix do
      Hashtbl.replace seen (Sim.Rng.next a) ()
    done;
    let overlap = ref 0 in
    for _ = 1 to prefix do
      if Hashtbl.mem seen (Sim.Rng.next b) then incr overlap
    done;
    checki
      (Printf.sprintf "streams %d and %d share no outputs" stream (stream + 1))
      0 !overlap
  done

let test_rng_reseed_matches_fresh () =
  (* Arena reuse depends on [reseed] being indistinguishable from
     [create]: a generator that ran arbitrarily long, once reseeded,
     must replay exactly the fresh stream. *)
  let used = Sim.Rng.create 99L in
  for _ = 1 to 1234 do
    ignore (Sim.Rng.next used)
  done;
  Sim.Rng.reseed used 42L;
  let fresh = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "reseeded replays fresh stream" (Sim.Rng.next fresh)
      (Sim.Rng.next used)
  done

(* The stream pinned to the values the boxed-[int64] generator
   produced: first draws of each kind from six seeds (including the
   sign-bit extremes), plus draw 1000, which exercises the counter
   recurrence far from the seed. *)
let rng_goldens =
  [
    (0L, 443823, 0x2220a8397b1dcdaf, 0x1.c4415072f63b9p-1, true, 1,
     0x14e0abb2bfcf7c3e);
    (1L, 46657, 0x110a2dec89025cc1, 0x1.22145bd91204bp-1, true, 1,
     0x271894b1b5034fb7);
    (0x5EEDL, 416052, 0x9f1fd9d03f0a9b4, 0x1.3e3fb3a07e15p-5, false, 2,
     0x10aaf3c862ac6d8b);
    (0xDEADBEEFL, 467163, 0xadfb90f68c9eb9b, 0x1.2b7ee43da327ap-2, true, 1,
     0x9425e84566f3c44);
    (Int64.min_int, 106011, 0x81ec0a212a9f3db, 0x1.207b02884aa7cp-2, true, 1,
     0x136d315c07c16ea2);
    (-1L, 280224, 0x24d971771b652c20, 0x1.c9b2e2ee36ca5p-1, false, 2,
     0x2bd385046d33fbf);
  ]

let test_rng_golden_draws () =
  List.iter
    (fun (seed, int_m, int_max, fl, b, geo, int_1000) ->
      let fresh () = Sim.Rng.create seed in
      let name what = Printf.sprintf "seed %Ld: %s" seed what in
      checki (name "int 1e6") int_m (Sim.Rng.int (fresh ()) 1_000_000);
      checki (name "int max_int") int_max (Sim.Rng.int (fresh ()) max_int);
      check (Alcotest.float 0.) (name "float") fl (Sim.Rng.float (fresh ()));
      checkb (name "bool") b (Sim.Rng.bool (fresh ()));
      checki (name "geometric_capped 9") geo
        (Sim.Rng.geometric_capped (fresh ()) 9);
      let r = fresh () in
      for _ = 1 to 999 do
        ignore (Sim.Rng.next r)
      done;
      checki (name "draw 1000") int_1000 (Sim.Rng.int r max_int))
    rng_goldens

(* {1 Memory and registers} *)

let test_memory_counts () =
  let mem = Sim.Memory.create () in
  checki "empty" 0 (Sim.Memory.allocated mem);
  let _r1 = Sim.Register.create mem in
  let _r2 = Sim.Register.create mem in
  checki "two" 2 (Sim.Memory.allocated mem)

let test_register_initial () =
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  checki "initial value" 0 (Sim.Register.read r);
  checki "no writer" (-1) r.Sim.Register.last_writer

let test_register_write () =
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  Sim.Register.write r ~writer:3 42;
  checki "value" 42 (Sim.Register.read r);
  checki "writer" 3 r.Sim.Register.last_writer

let test_register_ids_unique () =
  let mem = Sim.Memory.create () in
  let rs = List.init 10 (fun _ -> Sim.Register.create mem) in
  let ids = List.map (fun (r : Sim.Register.t) -> r.Sim.Register.id) rs in
  checki "all distinct" 10 (List.length (List.sort_uniq compare ids))

let test_memory_reset () =
  let mem = Sim.Memory.create () in
  let r1 = Sim.Register.create mem in
  let r2 = Sim.Register.create mem in
  Sim.Register.write r1 ~writer:3 42;
  Sim.Register.write r2 ~writer:5 7;
  Sim.Memory.reset mem;
  checki "r1 back to initial" 0 (Sim.Register.read r1);
  checki "r1 writer cleared" (-1) r1.Sim.Register.last_writer;
  checki "r2 back to initial" 0 (Sim.Register.read r2);
  checki "ids survive reset" 2 (Sim.Memory.allocated mem);
  (* Registers allocated after a reset still enrol for the next one. *)
  let r3 = Sim.Register.create mem in
  Sim.Register.write r3 ~writer:1 9;
  Sim.Memory.reset mem;
  checki "late register also reset" 0 (Sim.Register.read r3);
  (* Written twice before one reset: the second write must not leave a
     stale entry behind (it is restored once, like any other). *)
  Sim.Register.write r1 ~writer:3 4;
  Sim.Register.write r1 ~writer:5 6;
  Sim.Memory.reset mem;
  checki "twice-written register back to initial" 0 (Sim.Register.read r1);
  checki "twice-written register writer cleared" (-1)
    r1.Sim.Register.last_writer;
  (* Two resets with no write between them: the second finds nothing to
     restore, and the next write after it is still tracked. *)
  Sim.Memory.reset mem;
  Sim.Memory.reset mem;
  checki "double reset leaves r1 initial" 0 (Sim.Register.read r1);
  checki "double reset leaves r3 initial" 0 (Sim.Register.read r3);
  Sim.Register.write r2 ~writer:1 8;
  Sim.Memory.reset mem;
  checki "write after a double reset is reset" 0 (Sim.Register.read r2);
  checki "write after a double reset: writer cleared" (-1)
    r2.Sim.Register.last_writer

(* {1 Scheduler} *)

(* A tiny program: read a register, add own pid, write it back, return
   the value read. *)
let incr_prog reg ctx =
  let v = Sim.Ctx.read ctx reg in
  Sim.Ctx.write ctx reg (v + Sim.Ctx.pid ctx + 1);
  v

let test_sched_round_robin () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 3 (fun _ -> incr_prog reg)) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  (* Round-robin interleaves all three reads before any write, so every
     process writes [0 + pid + 1] and the last writer is p2. *)
  checki "last write wins" 3 (Sim.Register.read reg);
  for pid = 0 to 2 do
    checki "each took 2 steps" 2 (Sim.Sched.steps sched pid)
  done;
  checki "total time" 6 (Sim.Sched.time sched)

let test_sched_sequential_results () =
  (* Under round-robin p0 reads first (sees 0), all three read before any
     write completes... round-robin order: p0 read, p1 read, p2 read, p0
     write, p1 write, p2 write: all read 0. *)
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 3 (fun _ -> incr_prog reg)) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  Array.iter
    (fun r -> checki "read 0" 0 (Option.get r))
    (Sim.Sched.results sched)

let test_sched_fixed_schedule () =
  (* Run p0 fully first, then p1: p1 must observe p0's write. *)
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 2 (fun _ -> incr_prog reg)) in
  Sim.Sched.run sched (Sim.Adversary.fixed_schedule [| 0; 0; 1; 1 |]);
  checki "p0 saw 0" 0 (Option.get (Sim.Sched.result sched 0));
  checki "p1 saw p0's write" 1 (Option.get (Sim.Sched.result sched 1))

let test_sched_fixed_schedule_halts () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 2 (fun _ -> incr_prog reg)) in
  Sim.Sched.run sched (Sim.Adversary.fixed_schedule [| 0; 0 |]);
  checkb "p0 finished" true (Sim.Sched.result sched 0 <> None);
  checkb "p1 crashed" true (Sim.Sched.status sched 1 = Sim.Sched.Crashed)

let test_sched_crash () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 2 (fun _ -> incr_prog reg)) in
  Sim.Sched.crash sched 0;
  checkb "crashed" true (Sim.Sched.status sched 0 = Sim.Sched.Crashed);
  Alcotest.check_raises "cannot step crashed"
    (Invalid_argument "Sched.step: process is not running") (fun () ->
      Sim.Sched.step sched 0);
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "p1 unaffected, saw 0" 0 (Option.get (Sim.Sched.result sched 1))

let test_sched_pending_before_step () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create [| incr_prog reg |] in
  (match Sim.Sched.pending sched 0 with
  | Some { Sim.Op.kind = Sim.Op.Read; reg = r } ->
      checki "poised at the register" reg.Sim.Register.id r.Sim.Register.id
  | _ -> Alcotest.fail "expected pending read");
  Sim.Sched.step sched 0;
  (match Sim.Sched.pending sched 0 with
  | Some { Sim.Op.kind = Sim.Op.Write v; _ } -> checki "pending write value" 1 v
  | _ -> Alcotest.fail "expected pending write")

let test_view_filtering () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create ~name:"secret" mem in
  let prog ctx = Sim.Ctx.write ctx reg 7; 0 in
  let sched = Sim.Sched.create [| prog |] in
  let open Sim.Sched in
  let v_adaptive = (view sched Adaptive).pending_of 0 in
  checkb "adaptive sees kind" true (v_adaptive.view_kind = Some `Write);
  checkb "adaptive sees reg" true (v_adaptive.view_reg <> None);
  checkb "adaptive sees value" true (v_adaptive.view_value = Some 7);
  let v_loc = (view sched Location_oblivious).pending_of 0 in
  checkb "loc-obl sees kind" true (v_loc.view_kind = Some `Write);
  checkb "loc-obl hides reg" true (v_loc.view_reg = None);
  checkb "loc-obl sees value" true (v_loc.view_value = Some 7);
  let v_rw = (view sched Rw_oblivious).pending_of 0 in
  checkb "rw-obl hides kind" true (v_rw.view_kind = None);
  checkb "rw-obl sees reg" true (v_rw.view_reg <> None);
  checkb "rw-obl hides value" true (v_rw.view_value = None);
  let v_obl = (view sched Oblivious).pending_of 0 in
  checkb "oblivious hides all" true
    (v_obl.view_kind = None && v_obl.view_reg = None && v_obl.view_value = None)

let test_trace_recording () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create ~record_trace:true [| incr_prog reg |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  let events = Sim.Sched.trace sched in
  let steps =
    List.filter (function Sim.Op.Step _ -> true | _ -> false) events
  in
  checki "two steps traced" 2 (List.length steps);
  let finishes =
    List.filter (function Sim.Op.Finish _ -> true | _ -> false) events
  in
  checki "one finish" 1 (List.length finishes)

let test_trace_off_by_default () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create [| incr_prog reg |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "no trace" 0 (List.length (Sim.Sched.trace sched))

let test_flips_recorded () =
  let prog ctx = Sim.Ctx.flip ctx 2 + Sim.Ctx.flip ctx 2 in
  let sched = Sim.Sched.create ~record_trace:true [| prog |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "two flips counted" 2 (Sim.Sched.flips sched 0);
  checki "no shared steps" 0 (Sim.Sched.steps sched 0)

let test_flip_oracle () =
  let prog ctx = Sim.Ctx.flip ctx 10 in
  let oracle ~pid:_ ~bound:_ = Some 7 in
  let sched = Sim.Sched.create ~flip_oracle:oracle [| prog |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "oracle controls flip" 7 (Option.get (Sim.Sched.result sched 0))

let test_first_and_finish_times () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 2 (fun _ -> incr_prog reg)) in
  Sim.Sched.run sched (Sim.Adversary.fixed_schedule ~then_halt:false [| 1; 1; 0; 0 |]);
  checki "p1 started first" 1 (Sim.Sched.first_step_time sched 1);
  checki "p1 finished at 2" 2 (Sim.Sched.finish_time sched 1);
  checki "p0 started at 3" 3 (Sim.Sched.first_step_time sched 0)

let test_crash_injection () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let sched = Sim.Sched.create (Array.init 2 (fun _ -> incr_prog reg)) in
  let adv =
    Fault.Plan.apply
      [ Fault.Plan.crash_after ~pid:0 ~steps:1 ]
      (Sim.Adversary.round_robin ())
  in
  Sim.Sched.run sched adv;
  checkb "p0 crashed after 1 step" true (Sim.Sched.status sched 0 = Sim.Sched.Crashed);
  checki "p0 took exactly 1 step" 1 (Sim.Sched.steps sched 0);
  checkb "p1 finished" true (Sim.Sched.result sched 1 <> None)

let test_max_total_steps () =
  let mem = Sim.Memory.create () in
  let reg = Sim.Register.create mem in
  let rec spin ctx = ignore (Sim.Ctx.read ctx reg); spin ctx in
  let sched = Sim.Sched.create [| spin |] in
  checkb "livelock detected" true
    (try
       Sim.Sched.run ~max_total_steps:100 sched (Sim.Adversary.round_robin ());
       false
     with Failure _ -> true)

let test_max_total_steps_boundary () =
  (* The bound is inclusive: an execution needing exactly N steps
     succeeds with [~max_total_steps:N] and trips the guard at N-1. *)
  let run_with bound =
    let mem = Sim.Memory.create () in
    let reg = Sim.Register.create mem in
    let prog ctx =
      for _ = 1 to 100 do
        ignore (Sim.Ctx.read ctx reg)
      done;
      0
    in
    let sched = Sim.Sched.create [| prog |] in
    Sim.Sched.run ~max_total_steps:bound sched (Sim.Adversary.round_robin ());
    Sim.Sched.steps sched 0
  in
  checki "exactly the bound is allowed" 100 (run_with 100);
  checkb "needing one more step fails" true
    (try
       ignore (run_with 99);
       false
     with Failure _ -> true)

(* {1 Arena reuse: reset-and-rerun is bit-identical to fresh} *)

(* A racy randomized workload: every process flips, writes its draw,
   reads a neighbour and returns a value mixing both — so results are
   sensitive to the RNG stream, the schedule, and leftover register
   state alike. *)
let reuse_progs ?(base = 0) ?(sparse = false) regs n =
  Array.init n (fun pid ctx ->
      let draw = Sim.Ctx.flip ctx 1000 in
      if pid = 0 || (not sparse) || draw mod 2 = 0 then
        Sim.Ctx.write ctx regs.(base + pid) (draw + 1);
      let seen = Sim.Ctx.read ctx regs.(base + ((pid + 1) mod n)) in
      (draw * 10_000) + seen)

let reuse_fingerprint sched n =
  List.init n (fun pid ->
      ( Sim.Sched.result sched pid,
        Sim.Sched.steps sched pid,
        Sim.Sched.flips sched pid,
        Sim.Sched.rmrs sched pid ))

(* [blocks] disjoint blocks of [n] registers; trial [i] runs on block
   [i mod blocks]. With [blocks > 1] consecutive trials touch disjoint
   registers, so a reset that forgot what an earlier trial wrote or
   cached would leak it into the next trial on the same block. With
   [sparse], only p0 and the processes drawing an even number write, so
   some registers are only read (and cached) in a trial. *)
let check_reset_bit_identical ~n ~blocks ~sparse seeds =
  let block_progs regs b = reuse_progs ~base:(b * n) ~sparse regs n in
  let fresh_run seed block =
    let mem = Sim.Memory.create () in
    let regs = Array.init (n * blocks) (fun _ -> Sim.Register.create mem) in
    let sched = Sim.Sched.create ~seed (block_progs regs block) in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
    reuse_fingerprint sched n
  in
  (* One arena, reset per trial — the engine's hot-path pattern. *)
  let mem = Sim.Memory.create () in
  let regs = Array.init (n * blocks) (fun _ -> Sim.Register.create mem) in
  let progs = Array.init blocks (block_progs regs) in
  let sched = Sim.Sched.create progs.(0) in
  let reused_run seed block =
    Sim.Memory.reset mem;
    Sim.Sched.reset ~seed sched progs.(block);
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
    reuse_fingerprint sched n
  in
  List.iteri
    (fun i seed ->
      let block = i mod blocks in
      checkb
        (Printf.sprintf "n=%d seed %Ld block %d: reused arena matches fresh"
           n seed block)
        true
        (fresh_run seed block = reused_run seed block))
    seeds

let test_sched_reset_bit_identical () =
  check_reset_bit_identical ~n:8 ~blocks:1 ~sparse:false
    [ 1L; 2L; 3L; 0xDEADL; 0x5EEDL ];
  (* Nine processes make each RMR bitset two bytes wide. *)
  check_reset_bit_identical ~n:9 ~blocks:3 ~sparse:true
    (List.init 12 (fun i -> Int64.of_int (i + 1)))

let test_sched_reset_process_count_mismatch () =
  let mem = Sim.Memory.create () in
  let regs = Array.init 4 (fun _ -> Sim.Register.create mem) in
  let sched = Sim.Sched.create (reuse_progs regs 4) in
  checkb "reset rejects a different process count" true
    (try
       Sim.Sched.reset sched (reuse_progs regs 2);
       false
     with Invalid_argument _ -> true)

(* The runnable contract adversaries rely on: inside [decide],
   [view.runnable] is ascending and holds exactly the pids running at
   that decision. 64 processes of flip-driven lengths, with scheduled
   crashes so removals come from both exits and crashes, over 20
   trials on one reused scheduler. *)
let test_runnable_contract () =
  let k = 64 in
  let mem = Sim.Memory.create () in
  let regs = Array.init 8 (fun _ -> Sim.Register.create mem) in
  let prog ctx =
    for _ = 0 to Sim.Ctx.flip ctx 20 do
      let r = regs.(Sim.Ctx.flip ctx (Array.length regs)) in
      if Sim.Ctx.flip_bool ctx then Sim.Ctx.write ctx r (Sim.Ctx.pid ctx)
      else ignore (Sim.Ctx.read ctx r)
    done;
    0
  in
  let progs = Array.make k prog in
  let sched = Sim.Sched.create progs in
  let decisions = ref 0 and bad = ref [] in
  let crashed = ref 0 in
  for seed = 1 to 20 do
    let seed = Int64.of_int seed in
    Sim.Memory.reset mem;
    Sim.Sched.reset ~seed:(Sim.Rng.derive seed ~stream:0) sched progs;
    let rng = Sim.Rng.create (Sim.Rng.derive seed ~stream:2) in
    let crashes =
      List.init 8 (fun _ -> (Sim.Rng.int rng k, Sim.Rng.int rng 6))
    in
    let inner =
      Fault.Plan.apply
        (List.map
           (fun (pid, steps) -> Fault.Plan.crash_after ~pid ~steps)
           crashes)
        (Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1))
    in
    let decide (v : Sim.Sched.view) =
      let r = v.runnable in
      let handed = List.init (Sim.Running.length r) (Sim.Running.get r) in
      let is_running pid = Sim.Sched.status sched pid = Sim.Sched.Running in
      let running = List.filter is_running (List.init k Fun.id) in
      incr decisions;
      (* [running] is ascending, so equality also checks the order. *)
      if handed <> running
         || List.exists
              (fun pid -> Sim.Running.mem r pid <> is_running pid)
              (List.init k Fun.id)
      then bad := (Sim.Sched.time sched, handed, running) :: !bad;
      inner.Sim.Sched.decide v
    in
    Sim.Sched.run sched { inner with Sim.Sched.decide };
    for pid = 0 to k - 1 do
      if Sim.Sched.status sched pid = Sim.Sched.Crashed then incr crashed
    done
  done;
  checkb "crashes removed processes" true (!crashed > 0);
  checkb "decisions checked" true (!decisions > 1000);
  match !bad with
  | [] -> ()
  | (time, handed, running) :: _ ->
      check Alcotest.(list int)
        (Printf.sprintf "the running pids, ascending, at time %d" time)
        running handed

(* {1 RMR accounting (cache-coherent model)} *)

let test_rmr_cached_reads_free () =
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  let prog ctx =
    ignore (Sim.Ctx.read ctx r);
    ignore (Sim.Ctx.read ctx r);
    ignore (Sim.Ctx.read ctx r);
    0
  in
  let sched = Sim.Sched.create [| prog |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "three steps" 3 (Sim.Sched.steps sched 0);
  checki "one RMR: later reads hit the cache" 1 (Sim.Sched.rmrs sched 0)

let test_rmr_write_invalidates () =
  (* p0 reads (cache), p1 writes (invalidate), p0 reads again: 2 RMRs. *)
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  let progs =
    [|
      (fun ctx ->
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        0);
      (fun ctx -> Sim.Ctx.write ctx r 7; 0);
    |]
  in
  let sched = Sim.Sched.create progs in
  Sim.Sched.run sched (Sim.Adversary.fixed_schedule ~then_halt:false [| 0; 1; 0 |]);
  checki "p0: both reads remote" 2 (Sim.Sched.rmrs sched 0);
  checki "p1: one write RMR" 1 (Sim.Sched.rmrs sched 1)

let test_rmr_writes_always_count () =
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  let prog ctx =
    Sim.Ctx.write ctx r 1;
    Sim.Ctx.write ctx r 2;
    ignore (Sim.Ctx.read ctx r);
    0
  in
  let sched = Sim.Sched.create [| prog |] in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  (* Two writes are RMRs; the read hits the writer's own cached copy. *)
  checki "two RMRs" 2 (Sim.Sched.rmrs sched 0)

let test_rmr_max () =
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  let progs =
    Array.init 3 (fun i ctx ->
        for _ = 0 to i do
          Sim.Ctx.write ctx r i
        done;
        0)
  in
  let sched = Sim.Sched.create progs in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  checki "max over processes" 3 (Sim.Sched.max_rmrs sched)

(* Words allocated so far. [Gc.minor_words ()] counts the minor heap
   exactly ([Gc.allocated_bytes]'s minor part only moves at a
   collection); arrays too large for it go straight to the major heap,
   counted as major minus promoted words. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The RMR cache costs what a run touches: one register far out in the
   id space (a classic RatRace structure at n=64 declares 3.17M
   registers) must not make the first run pay for every id below it. *)
let test_rmr_cache_sparse_ids () =
  let mem = Sim.Memory.create () in
  ignore (Sim.Memory.reserve mem 3_000_000);
  let r = Sim.Register.create mem in
  checki "register id" 3_000_000 r.Sim.Register.id;
  let prog ctx =
    Sim.Ctx.write ctx r (Sim.Ctx.read ctx r + 1);
    0
  in
  let before = allocated_words () in
  let sched = Sim.Sched.create (Array.make 64 prog) in
  Sim.Sched.run sched (Sim.Adversary.round_robin ());
  let words = allocated_words () -. before in
  for pid = 0 to 63 do
    checki (Printf.sprintf "p%d: read and write are RMRs" pid) 2
      (Sim.Sched.rmrs sched pid)
  done;
  checkb
    (Printf.sprintf "first trial allocated %.0f words (< 50000)" words)
    true (words < 50_000.)

(* Minor words per scheduled step on the effect path, reset and
   adversary included: two processes doing 200 reads each on a reused
   scheduler, then both RatRaces at n=64, k=16 on a reused arena. The
   RatRace trial replays its warm-up seed, so every tree and grid node
   it touches was built (lazily, once) by the warm-up: the figure is the
   steady-state step cost. It is a count, identical on every run. *)
let test_step_allocation_ceiling () =
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  let prog ctx =
    for _ = 1 to 200 do
      ignore (Sim.Ctx.read ctx r)
    done;
    0
  in
  let per_step ~mem progs ~warm ~seed =
    let sched = Sim.Sched.create progs in
    let trial seed =
      Sim.Memory.reset mem;
      Sim.Sched.reset ~seed sched progs;
      Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed)
    in
    trial warm;
    let before = Gc.minor_words () in
    trial seed;
    ( Sim.Sched.time sched,
      (Gc.minor_words () -. before) /. float_of_int (Sim.Sched.time sched) )
  in
  let ceiling what w =
    checkb
      (Printf.sprintf "%s: %.2f minor words per step (<= 20)" what w)
      true (w <= 20.)
  in
  let steps, w = per_step ~mem [| prog; prog |] ~warm:1L ~seed:2L in
  checki "steps" 400 steps;
  ceiling "reads" w;
  List.iter
    (fun (name, make) ->
      let mem = Sim.Memory.create () in
      let le : Leaderelect.Le.t = make mem ~n:64 in
      let _, w =
        per_step ~mem (Leaderelect.Le.programs le ~k:16) ~warm:3L ~seed:3L
      in
      ceiling name w)
    [
      ("ratrace", Tutil.make "ratrace");
      ("ratrace-lean", Tutil.make "ratrace-lean");
    ]

(* Process exits allocate nothing: 1,024 processes each do one read and
   exit, on a reused scheduler. A run is 1,024 steps and 1,024 exits;
   per step it may allocate what a scheduled step costs (the view, the
   decision, the continuation), but no exit may allocate in proportion
   to the processes still running (counted by [allocated_words]). *)
let test_exit_allocation () =
  let k = 1024 in
  let mem = Sim.Memory.create () in
  let r = Sim.Register.create mem in
  let progs = Array.make k (fun ctx -> Sim.Ctx.read ctx r) in
  let sched = Sim.Sched.create progs in
  let trial seed =
    Sim.Sched.reset ~seed sched progs;
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed)
  in
  trial 1L;
  let before = allocated_words () in
  trial 2L;
  let words = allocated_words () -. before in
  checki "steps" k (Sim.Sched.time sched);
  checkb
    (Printf.sprintf "%.0f words for %d exits (<= 32 per step)" words k)
    true
    (words <= 32. *. float_of_int k)

(* {1 Explorer} *)

let test_explore_counts () =
  (* One process, one flip with bound 2, depth 2: the root run plus one
     run per flip outcome (the flip is the only choice point besides the
     single-choice scheduling points). *)
  let programs () = [| (fun ctx -> Sim.Ctx.flip ctx 2) |] in
  let seen = ref [] in
  let n =
    Sim.Explore.explore ~depth:4 ~programs
      ~check:(fun sched ->
        seen := Option.get (Sim.Sched.result sched 0) :: !seen)
      ()
  in
  checkb "explored several paths" true (n >= 3);
  checkb "both outcomes seen" true
    (List.mem 0 !seen && List.mem 1 !seen)

let test_explore_schedules () =
  (* Two processes racing to write: exploration must produce executions
     where each wins the race. *)
  let outcomes = ref [] in
  let programs () =
    let mem = Sim.Memory.create () in
    let reg = Sim.Register.create mem in
    Array.init 2 (fun _ ctx ->
        let v = Sim.Ctx.read ctx reg in
        if v = 0 then Sim.Ctx.write ctx reg (Sim.Ctx.pid ctx + 1);
        v)
  in
  let _ =
    Sim.Explore.explore ~depth:6 ~programs
      ~check:(fun sched ->
        outcomes :=
          (Option.get (Sim.Sched.result sched 0),
           Option.get (Sim.Sched.result sched 1))
          :: !outcomes)
      ()
  in
  checkb "p1 sometimes sees p0's write" true (List.exists (fun (_, b) -> b > 0) !outcomes);
  checkb "p0 sometimes sees p1's write" true (List.exists (fun (a, _) -> a > 0) !outcomes);
  checkb "sometimes neither sees" true (List.mem (0, 0) !outcomes)

(* A deliberately unsafe 2-process duel (the pre-fix Le2 with win
   threshold -2): the checker must find and shrink a two-winner
   execution. *)
let buggy_duel_programs () =
  let mem = Sim.Memory.create () in
  let a = Sim.Register.create mem and b = Sim.Register.create mem in
  Array.init 2 (fun port ctx ->
      let mine, other = if port = 0 then (a, b) else (b, a) in
      let rec loop pos =
        let o = Sim.Ctx.read ctx other in
        if o >= pos + 2 then 0
        else if o <= pos - 2 then 1
        else begin
          let pos' = pos + (if Sim.Ctx.flip_bool ctx then 1 else 0) in
          if pos' > pos then Sim.Ctx.write ctx mine pos';
          loop pos'
        end
      in
      loop 0)

let two_winner_check sched =
  let winners =
    Array.fold_left
      (fun a r -> if r = Some 1 then a + 1 else a)
      0 (Sim.Sched.results sched)
  in
  if winners > 1 then failwith "two winners"

let test_find_violation_on_buggy_protocol () =
  match
    Sim.Explore.find_violation ~depth:12 ~programs:buggy_duel_programs
      ~check:two_winner_check ()
  with
  | None -> Alcotest.fail "expected to find the two-winner violation"
  | Some v ->
      checkb "message mentions the failure" true
        (let m = v.Sim.Explore.message in
         String.length m > 0);
      checkb "found within bounded executions" true (v.Sim.Explore.executions > 0);
      (* The shrunk path must still reproduce the violation via replay. *)
      let sched =
        Sim.Explore.replay ~path:v.Sim.Explore.path
          ~programs:buggy_duel_programs ()
      in
      checkb "replay reproduces" true
        (try
           two_winner_check sched;
           false
         with Failure _ -> true)

(* {2 Crash-aware exploration} *)

let test_explore_crash_budget () =
  (* With [max_crashes = 1] some explored executions crash a process,
     and none crashes more than the budget. *)
  let programs () =
    let mem = Sim.Memory.create () in
    let reg = Sim.Register.create mem in
    Array.init 3 (fun _ -> incr_prog reg)
  in
  let crashed_runs = ref 0 and over_budget = ref false in
  let n =
    Sim.Explore.explore ~depth:4 ~max_crashes:1 ~programs
      ~check:(fun sched ->
        let c = ref 0 in
        for pid = 0 to 2 do
          if Sim.Sched.status sched pid = Sim.Sched.Crashed then incr c
        done;
        if !c > 0 then incr crashed_runs;
        if !c > 1 then over_budget := true)
      ()
  in
  checkb "explored" true (n > 10);
  checkb "some runs crash a process" true (!crashed_runs > 0);
  checkb "never beyond the budget" false !over_budget

let test_explore_no_crashes_by_default () =
  (* [max_crashes] defaults to 0: choice-point numbering and arity are
     exactly the crash-free ones, and nobody ever crashes. *)
  let programs () =
    let mem = Sim.Memory.create () in
    let reg = Sim.Register.create mem in
    Array.init 2 (fun _ -> incr_prog reg)
  in
  let _ =
    Sim.Explore.explore ~depth:4 ~programs
      ~check:(fun sched ->
        for pid = 0 to 1 do
          checkb "no crash" false (Sim.Sched.status sched pid = Sim.Sched.Crashed)
        done)
      ()
  in
  ()

(* A deliberately broken handoff protocol with a {e crash-only} safety
   bug: p0 announces itself then spins until p1's signal arrives; p1
   just signals. Crash-free every fair execution terminates, but if p1
   crashes before writing, p0 spins forever — a lost wakeup only
   crash-aware exploration can expose (as a blown step budget). This is
   precisely the failure mode RatRace's backup structure guards
   against. *)
let handoff_programs () =
  let mem = Sim.Memory.create () in
  let a = Sim.Register.create mem and b = Sim.Register.create mem in
  [|
    (fun ctx ->
      Sim.Ctx.write ctx a 1;
      let rec wait () = if Sim.Ctx.read ctx b = 0 then wait () else 0 in
      wait ());
    (fun ctx ->
      Sim.Ctx.write ctx b 1;
      0);
  |]

let test_find_violation_crash_only_bug () =
  (* Without crashes the protocol is fine in the bounded space... *)
  checkb "no crash-free violation" true
    (Sim.Explore.find_violation ~depth:4 ~max_total_steps:400
       ~programs:handoff_programs
       ~check:(fun _ -> ())
       ()
    = None);
  (* ...but one crash suffices, and the violating path shrinks to the
     single "crash p1 now" decision. *)
  match
    Sim.Explore.find_violation ~depth:4 ~max_crashes:1 ~max_total_steps:400
      ~programs:handoff_programs
      ~check:(fun _ -> ())
      ()
  with
  | None -> Alcotest.fail "expected a crash-induced livelock violation"
  | Some v ->
      checkb "shrunk to very few choices" true (Array.length v.Sim.Explore.path <= 2);
      checkb "message mentions the step budget" true
        (String.length v.Sim.Explore.message > 0);
      (* Replay (with the same crash budget) reproduces the divergence. *)
      checkb "replay reproduces the livelock" true
        (try
           ignore
             (Sim.Explore.replay ~max_crashes:1 ~max_total_steps:400
                ~path:v.Sim.Explore.path ~programs:handoff_programs ());
           false
         with Failure _ -> true)

let test_find_violation_none_on_correct_protocol () =
  (* The fixed duel (thresholds -3/+2) admits no violation in the same
     bounded space. *)
  let fixed () =
    let mem = Sim.Memory.create () in
    let a = Sim.Register.create mem and b = Sim.Register.create mem in
    Array.init 2 (fun port ctx ->
        let mine, other = if port = 0 then (a, b) else (b, a) in
        let rec loop pos =
          let o = Sim.Ctx.read ctx other in
          if o >= pos + 2 then 0
          else if o <= pos - 3 then 1
          else begin
            let pos' = pos + (if Sim.Ctx.flip_bool ctx then 1 else 0) in
            if pos' > pos then Sim.Ctx.write ctx mine pos';
            loop pos'
          end
        in
        loop 0)
  in
  checkb "no violation found" true
    (Sim.Explore.find_violation ~depth:12 ~programs:fixed
       ~check:two_winner_check ()
    = None)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "geometric support" `Quick test_rng_geometric_support;
          Alcotest.test_case "geometric distribution" `Quick test_rng_geometric_distribution;
          Alcotest.test_case "geometric cap" `Quick test_rng_geometric_cap;
          Alcotest.test_case "adjacent streams disjoint" `Quick
            test_rng_derive_adjacent_disjoint;
          Alcotest.test_case "reseed matches fresh" `Quick
            test_rng_reseed_matches_fresh;
          Alcotest.test_case "golden draws" `Quick test_rng_golden_draws;
        ] );
      ( "memory",
        [
          Alcotest.test_case "counts" `Quick test_memory_counts;
          Alcotest.test_case "register initial" `Quick test_register_initial;
          Alcotest.test_case "register write" `Quick test_register_write;
          Alcotest.test_case "ids unique" `Quick test_register_ids_unique;
          Alcotest.test_case "arena reset" `Quick test_memory_reset;
        ] );
      ( "sched",
        [
          Alcotest.test_case "round robin" `Quick test_sched_round_robin;
          Alcotest.test_case "reads before writes" `Quick test_sched_sequential_results;
          Alcotest.test_case "fixed schedule" `Quick test_sched_fixed_schedule;
          Alcotest.test_case "fixed schedule halts" `Quick test_sched_fixed_schedule_halts;
          Alcotest.test_case "crash" `Quick test_sched_crash;
          Alcotest.test_case "pending ops" `Quick test_sched_pending_before_step;
          Alcotest.test_case "view filtering" `Quick test_view_filtering;
          Alcotest.test_case "trace recording" `Quick test_trace_recording;
          Alcotest.test_case "trace off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "flips recorded" `Quick test_flips_recorded;
          Alcotest.test_case "flip oracle" `Quick test_flip_oracle;
          Alcotest.test_case "first/finish times" `Quick test_first_and_finish_times;
          Alcotest.test_case "crash injection" `Quick test_crash_injection;
          Alcotest.test_case "livelock guard" `Quick test_max_total_steps;
          Alcotest.test_case "step bound is inclusive" `Quick
            test_max_total_steps_boundary;
          Alcotest.test_case "reset bit-identical to fresh" `Quick
            test_sched_reset_bit_identical;
          Alcotest.test_case "reset rejects size change" `Quick
            test_sched_reset_process_count_mismatch;
          Alcotest.test_case "runnable contract" `Quick test_runnable_contract;
        ] );
      ( "rmr",
        [
          Alcotest.test_case "cached reads free" `Quick test_rmr_cached_reads_free;
          Alcotest.test_case "write invalidates" `Quick test_rmr_write_invalidates;
          Alcotest.test_case "writes always count" `Quick test_rmr_writes_always_count;
          Alcotest.test_case "max over processes" `Quick test_rmr_max;
          Alcotest.test_case "cache sized by touched ids" `Quick
            test_rmr_cache_sparse_ids;
          Alcotest.test_case "exit allocation" `Quick test_exit_allocation;
          Alcotest.test_case "step allocation ceiling" `Quick
            test_step_allocation_ceiling;
        ] );
      ( "explore",
        [
          Alcotest.test_case "flip branching" `Quick test_explore_counts;
          Alcotest.test_case "schedule branching" `Quick test_explore_schedules;
          Alcotest.test_case "find violation + shrink" `Quick
            test_find_violation_on_buggy_protocol;
          Alcotest.test_case "no false positives" `Quick
            test_find_violation_none_on_correct_protocol;
          Alcotest.test_case "crash budget respected" `Quick
            test_explore_crash_budget;
          Alcotest.test_case "no crashes by default" `Quick
            test_explore_no_crashes_by_default;
          Alcotest.test_case "crash-only bug found + shrunk" `Quick
            test_find_violation_crash_only_bug;
        ] );
    ]
