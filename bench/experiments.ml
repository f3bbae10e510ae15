(* Experiment harness: one experiment per theorem/claim of the paper.
   Each [run_*] prints the table described in EXPERIMENTS.md.

   Every statistical loop fans out over [Engine] with [!domains]
   domains; per-trial seeds (and every sub-seed inside a trial) come
   from [Sim.Rng.derive], so the tables are bit-identical for any
   domain count. *)

let pr = Fmt.pr

let line () = pr "%s@." (String.make 78 '-')

let header title =
  pr "@.%s@." (String.make 78 '=');
  pr "%s@." title;
  pr "%s@." (String.make 78 '=')

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let log2 x = log x /. log 2.0

(* Domain-pool width for every experiment batch; bench/main.ml sets it
   from --domains. *)
let domains = ref (Engine.default_domains ())

let derive = Sim.Rng.derive

(* Base seed of every experiment batch. Trials derive from it by index,
   so tables do not depend on how many batches ran before them. *)
let base_seed = 0x0E17A5EEDL

(* Average (over derived per-trial seeds) of a per-run measurement on a
   fresh system. [f] receives the trial's base seed and mints sub-seeds
   with [derive ~stream]. *)
let avg_runs ~trials f =
  Engine.mean ~domains:!domains ~trials ~seed:base_seed
    (fun ~trial:_ ~seed -> f seed)

(* {1 E1 — Lemma 2.2: performance parameter of the Figure 1 GroupElect} *)

let run_e1 () =
  header "E1  Lemma 2.2 - GroupElect (Fig. 1) performance f(k) <= 2 log2 k + 6";
  pr "%8s %12s %14s %8s@." "k" "measured" "paper bound" "ok";
  line ();
  let n = 4096 in
  List.iter
    (fun k ->
      let measured =
        avg_runs ~trials:300 (fun seed ->
            let mem = Sim.Memory.create () in
            let ge = Groupelect.Ge_logstar.create mem ~n in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Array.init k (fun _ ctx ->
                     if ge.Groupelect.Ge.elect ctx then 1 else 0))
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
            float_of_int
              (Array.fold_left
                 (fun a r -> if r = Some 1 then a + 1 else a)
                 0 (Sim.Sched.results sched)))
      in
      let bound = if k = 1 then 6.0 else (2.0 *. log2 (float_of_int k)) +. 6.0 in
      pr "%8d %12.2f %14.2f %8s@." k measured bound
        (if measured <= bound then "yes" else "NO"))
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

(* {1 E2 — Theorem 2.3: the log* leader election} *)

let run_e2 () =
  header
    "E2  Theorem 2.3 - log* leader election: expected max steps vs contention k";
  pr "%8s %14s %10s %12s@." "k" "avg max steps" "log* k" "registers";
  line ();
  let n = 4096 in
  List.iter
    (fun k ->
      let regs = ref 0 in
      let steps =
        avg_runs ~trials:25 (fun seed ->
            let mem = Sim.Memory.create () in
            let le = Leaderelect.Le_logstar.make mem ~n in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Leaderelect.Le.programs le ~k)
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
            regs := Sim.Memory.allocated mem;
            float_of_int (Sim.Sched.max_steps sched))
      in
      pr "%8d %14.1f %10d %12d@." k steps
        (Lowerbound.Logstar.log_star (float_of_int k))
        !regs)
    [ 2; 4; 16; 64; 256; 1024; 4096 ];
  pr "@.Shape check: the steps column should be essentially flat (log* k).@."

(* {1 E3 — Section 2.3: sifting decay and the loglog election} *)

let run_e3 () =
  header "E3  Section 2.3 - sifting survivor decay and loglog election";
  let n = 4096 in
  pr "Survivors after each sifting level (k = n = %d, 20 trials):@." n;
  pr "%8s %12s %14s@." "level" "survivors" "2*sqrt(prev)";
  line ();
  let probs = Groupelect.Ge_sift.probability_schedule ~n in
  let counts = Array.make (Array.length probs + 1) 0.0 in
  let trials = 20 in
  (* Each trial returns its own survivor counts; the fold into [counts]
     happens in trial order on the caller. *)
  let per_trial =
    Engine.run ~domains:!domains ~trials ~seed:base_seed
      (fun ~trial:_ ~seed ->
        let mem = Sim.Memory.create () in
        let ges =
          Array.mapi
            (fun i p ->
              Groupelect.Ge_sift.create ~name:(Printf.sprintf "s%d" i) mem
                ~write_prob:p)
            probs
        in
        (* Every process walks the sifting levels; record how many
           survive each level. *)
        let survivors = Array.make (Array.length probs + 1) 0 in
        let programs =
          Array.init n (fun _ ctx ->
              let rec go i =
                survivors.(i) <- survivors.(i) + 1;
                if i >= Array.length ges then 1
                else if ges.(i).Groupelect.Ge.elect ctx then go (i + 1)
                else 0
              in
              go 0)
        in
        let sched = Sim.Sched.create ~seed:(derive seed ~stream:0) programs in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
        survivors)
  in
  Array.iter
    (fun survivors ->
      Array.iteri
        (fun i c ->
          counts.(i) <- counts.(i) +. (float_of_int c /. float_of_int trials))
        survivors)
    per_trial;
  Array.iteri
    (fun i c ->
      let prediction =
        if i = 0 then float_of_int n else (2.0 *. sqrt counts.(i - 1)) +. 1.0
      in
      pr "%8d %12.1f %14.1f@." i c prediction)
    counts;
  pr "@.loglog election: expected max steps vs k (n = %d):@." n;
  pr "%8s %14s %14s@." "k" "avg max steps" "log2 log2 k";
  line ();
  List.iter
    (fun k ->
      let steps =
        avg_runs ~trials:20 (fun seed ->
            let mem = Sim.Memory.create () in
            let le = Leaderelect.Le_loglog.make mem ~n in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Leaderelect.Le.programs le ~k)
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
            float_of_int (Sim.Sched.max_steps sched))
      in
      let ll = if k <= 2 then 1.0 else log2 (log2 (float_of_int k)) in
      pr "%8d %14.1f %14.2f@." k steps ll)
    [ 2; 4; 16; 64; 256; 1024; 4096 ]

(* {1 E4 — Section 3: lean RatRace step complexity} *)

let run_e4 () =
  header "E4  Section 3 - lean RatRace: expected max steps O(log k)";
  pr "%8s %16s %16s %10s@." "k" "lean (steps)" "classic (steps)" "log2 k";
  line ();
  List.iter
    (fun k ->
      let measure make =
        avg_runs ~trials:20 (fun seed ->
            let mem = Sim.Memory.create () in
            let le = make mem ~n:(max k 8) in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Leaderelect.Le.programs le ~k)
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_crashes ~seed:(derive seed ~stream:2)
                 ~crash_prob:0.005
                 (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1)));
            float_of_int (Sim.Sched.max_steps sched))
      in
      let lean = measure Leaderelect.Rr_le.make_lean in
      let classic =
        if k <= 64 then Fmt.str "%16.1f" (measure Leaderelect.Rr_le.make_original)
        else Fmt.str "%16s" "(skipped: n^3)"
      in
      pr "%8d %16.1f %s %10.1f@." k lean classic (log2 (float_of_int k)))
    [ 2; 4; 16; 64; 256; 1024 ];
  pr "@.Shape check: both columns grow like log k; lean uses Theta(n) space.@."

(* {1 E5 — Space: registers allocated vs n} *)

let run_e5 () =
  header "E5  Space complexity - registers allocated vs n";
  let allocate make n =
    let mem = Sim.Memory.create () in
    ignore (make mem ~n);
    Sim.Memory.allocated mem
  in
  (* Classic RatRace declares its Theta(n^3) registers at every n but
     builds only the nodes a trial touches (DESIGN.md §9), so its row
     costs microseconds even at n = 1024 (1.3e10 registers). *)
  let algorithms =
    [
      ("log*", Leaderelect.Le_logstar.make);
      ("loglog", Leaderelect.Le_loglog.make);
      ("aa", Leaderelect.Aa.make);
      ("tournament", Leaderelect.Tournament.make);
      ("ratrace-lean", Leaderelect.Rr_le.make_lean);
      ("combined-log*", Combined.Combine.make_logstar);
      ("ratrace(n^3)", Leaderelect.Rr_le.make_original);
    ]
  in
  let sizes = [ 8; 16; 32; 64; 256; 1024 ] in
  pr "%-14s" "algorithm";
  List.iter (fun n -> pr "%12d" n) sizes;
  pr "@.";
  line ();
  List.iter
    (fun (name, make) ->
      pr "%-14s" name;
      List.iter (fun n -> pr "%12d" (allocate make n)) sizes;
      pr "@.")
    algorithms;
  pr "%-14s" "Omega(log n)";
  List.iter
    (fun n -> pr "%12d" (Lowerbound.Covering.register_lower_bound ~n))
    sizes;
  pr "@.@.Shape check: every upper bound is linear in n except the classic@.";
  pr "RatRace (cubic); all dominate the Omega(log n) lower bound row.@."

(* {1 E6 — Theorem 4.1: adversary independence} *)

let run_e6 () =
  header "E6  Theorem 4.1 - the combination inherits the best of both";
  pr "%-16s %20s %20s@." "algorithm" "random-oblivious" "adaptive-attack";
  line ();
  let n = 128 in
  let measure make adv =
    avg_runs ~trials:15 (fun seed ->
        let mem = Sim.Memory.create () in
        let le = make mem ~n in
        let sched =
          Sim.Sched.create ~seed:(derive seed ~stream:0)
            (Leaderelect.Le.programs le ~k:n)
        in
        Sim.Sched.run sched (adv seed);
        float_of_int (Sim.Sched.max_steps sched))
  in
  let oblivious seed = Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1) in
  let attack _ = Leaderelect.Attacks.ascending_location () in
  List.iter
    (fun (name, make) ->
      let a = measure make oblivious and b = measure make attack in
      pr "%-16s %20.1f %20.1f@." name a b)
    [
      ("log*", Leaderelect.Le_logstar.make);
      ("ratrace-lean", Leaderelect.Rr_le.make_lean);
      ("combined-log*", Combined.Combine.make_logstar);
    ];
  pr "@.Shape check: the attack inflates plain log* (towards Theta(k)) but@.";
  pr "not ratrace-lean or the combination; under the oblivious schedule@.";
  pr "the combination stays within a constant factor of plain log*.@."

(* {1 E7 — Theorem 5.1: the space lower bound} *)

let run_e7 () =
  header "E7  Theorem 5.1 / Claim 5.5 - the covering recurrence";
  pr "%10s %12s %16s %12s@." "n" "f(n-4)" "4(log2 n - 1)" "claim 5.5";
  line ();
  List.iter
    (fun e ->
      let n = 1 lsl e in
      let fn4 = Lowerbound.Covering.f ~n (n - 4) in
      let closed = 4 * (e - 1) in
      let ok = Lowerbound.Covering.check_claim_5_5 ~n in
      pr "%10d %12d %16d %12s@." n fn4 closed (if ok then "verified" else "FAILED"))
    [ 3; 4; 5; 6; 8; 10; 12; 14; 16; 18; 20 ];
  pr "@.Covering harness (Lemma 5.4 base case) and written registers:@.";
  pr "%-14s %6s %10s %10s %12s %12s@." "algorithm" "n" "poised" "covered"
    "written" "lower bound";
  line ();
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let r = Lowerbound.Covering.base_round ~make ~n ~seed:5L in
          let w = Lowerbound.Covering.written_registers ~make ~n ~seed:5L in
          pr "%-14s %6d %10d %10d %12d %12d@." name n
            r.Lowerbound.Covering.poised_writers
            r.Lowerbound.Covering.distinct_covered w
            (Lowerbound.Covering.register_lower_bound ~n))
        [ 8; 16; 32; 64 ])
    [
      ("log*", Leaderelect.Le_logstar.make);
      ("tournament", Leaderelect.Tournament.make);
      ("ratrace-lean", Leaderelect.Rr_le.make_lean);
    ];
  pr "@.Lemma 5.4 rounds driven to max cover <= 4 (Covering_exec):@.";
  pr "%-14s %6s %8s %8s %10s %10s %10s@." "algorithm" "n" "rounds" "reps"
    "covered" "bound" "anomalies";
  line ();
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let r = Lowerbound.Covering_exec.run ~make ~n ~seed:11L () in
          pr "%-14s %6d %8d %8d %10d %10d %10d@." name n
            r.Lowerbound.Covering_exec.rounds r.Lowerbound.Covering_exec.final_reps
            r.Lowerbound.Covering_exec.final_covered
            (Lowerbound.Covering.register_lower_bound ~n)
            r.Lowerbound.Covering_exec.anomalies)
        [ 8; 16; 32; 64 ])
    [
      ("tournament", Leaderelect.Tournament.make);
      ("ratrace-lean", Leaderelect.Rr_le.make_lean);
    ];
  pr "@.Shape check: all processes become poised writers (base case), and@.";
  pr "every implementation writes at least the lower-bound register count.@."

(* {1 E8 — Theorem 6.1: the 2-process time lower bound} *)

let tas_pair () =
  let mem = Sim.Memory.create () in
  let le = Primitives.Le2.create mem in
  let tas =
    Primitives.Tas.create mem ~elect:(fun ctx ->
        Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
  in
  Array.init 2 (fun _ ctx -> Primitives.Tas.apply tas ctx)

let run_e8 () =
  header "E8  Theorem 6.1 - 2-process TAS: max_S Pr[>= t steps] >= 1/4^t";
  pr "%6s %12s %14s %12s %8s@." "t" "schedules" "max Pr" "1/4^t" "ok";
  line ();
  List.iter
    (fun t ->
      let p = Lowerbound.Yao.measure ~trials:300 ~make:tas_pair ~t () in
      pr "%6d %12d %14.4f %12.6f %8s@." t p.Lowerbound.Yao.schedules_tested
        p.Lowerbound.Yao.max_prob p.Lowerbound.Yao.bound
        (if p.Lowerbound.Yao.max_prob >= p.Lowerbound.Yao.bound then "yes"
         else "NO"))
    [ 1; 2; 3; 4; 5; 6; 10; 16; 24; 32 ];
  pr "@.Shape check: the measured adversary success dominates the 1/4^t@.";
  pr "lower bound at every t, and both decay to 0 (wait-freedom).@."

(* {1 E9 — Cross-algorithm step comparison} *)

let run_e9 () =
  header "E9  All algorithms - expected max steps vs k (random-oblivious)";
  let n = 1024 in
  let ks = [ 4; 16; 64; 256; 1024 ] in
  pr "%-16s" "algorithm";
  List.iter (fun k -> pr "%10d" k) ks;
  pr "@.";
  line ();
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      if e.Rtas.Registry.name <> "ratrace" then begin
        pr "%-16s" e.Rtas.Registry.name;
        List.iter
          (fun k ->
            let steps =
              avg_runs ~trials:10 (fun seed ->
                  let o =
                    Rtas.Election.run ~seed:(derive seed ~stream:0)
                      ~algorithm:e.Rtas.Registry.name ~n ~k
                      ~adversary:
                        (Sim.Adversary.random_oblivious
                           ~seed:(derive seed ~stream:1))
                      ()
                  in
                  float_of_int o.Rtas.Election.max_steps)
            in
            pr "%10.1f" steps)
          ks;
        pr "@."
      end)
    Rtas.Registry.all;
  (* Classic ratrace at n = 64 only. Its nodes are built lazily, but at
     n = k = 1024 Sim.Sched's RMR cache would give each touched node a
     32 KB page of its own (EXPERIMENTS.md, E5). *)
  pr "%-16s" "ratrace (n=64)";
  List.iter
    (fun k ->
      if k <= 64 then begin
        let steps =
          avg_runs ~trials:10 (fun seed ->
              let o =
                Rtas.Election.run ~seed:(derive seed ~stream:0) ~algorithm:"ratrace"
                  ~n:64 ~k
                  ~adversary:
                    (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1))
                  ()
              in
              float_of_int o.Rtas.Election.max_steps)
        in
        pr "%10.1f" steps
      end
      else pr "%10s" "-")
    ks;
  pr "@.@.Shape check: log* flattest, then loglog/aa, then the log-k family.@."

(* {1 E10 — real multicore: wall-clock cost of a TAS} *)

let run_e10 () =
  header "E10  Multicore - wall-clock ns per one-shot TAS (4 domains racing)";
  pr "%-14s %16s@." "implementation" "ns/op (mean)";
  line ();
  let domains = 4 in
  let time_one make =
    let trials = 300 in
    let t0 = Unix.gettimeofday () in
    for trial = 1 to trials do
      let tas = make () in
      List.init domains (fun slot ->
          Domain.spawn (fun () ->
              let rng = Random.State.make [| trial; slot |] in
              Primitives.Atomic_tas.apply tas rng ~slot))
      |> List.iter (fun d -> ignore (Domain.join d))
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int trials
  in
  List.iter
    (fun (name, make) ->
      pr "%-14s %16.0f   (%d domains, incl. spawn overhead)@." name
        (time_one make) domains)
    (("native", Primitives.Atomic_tas.native)
    :: List.map
         (fun (e : Rtas.Registry.entry) ->
           let make_mc = Option.get e.Rtas.Registry.make_mc in
           ( e.Rtas.Registry.name,
             fun () ->
               Primitives.Atomic_tas.create (fun mem ->
                   (make_mc mem ~n:domains).Leaderelect.Le.elect) ))
         (Rtas.Registry.dual ()))

(* {1 E11 — Adversary-class separations} *)

let run_e11 () =
  header
    "E11  Adversary classes - which GroupElect survives which adversary";
  pr "One GroupElect round, k = 64: mean number elected (lower is better).@.";
  pr "%-22s %12s %14s %14s@." "adversary (class)" "fig-1 (2.2)" "sifting (2.3)"
    "bound";
  line ();
  let k = 64 in
  let measure make adv =
    avg_runs ~trials:100 (fun seed ->
        let mem = Sim.Memory.create () in
        let ge : Groupelect.Ge.t = make mem in
        let sched =
          Sim.Sched.create ~seed:(derive seed ~stream:1)
            (Array.init k (fun _ ctx ->
                 if ge.Groupelect.Ge.elect ctx then 1 else 0))
        in
        Sim.Sched.run sched (adv seed);
        float_of_int
          (Array.fold_left
             (fun a r -> if r = Some 1 then a + 1 else a)
             0 (Sim.Sched.results sched)))
  in
  (* Name the objects with the chain's ".ge[level]" convention so the
     location-aware attacks can aim at them. *)
  let fig1 mem = Groupelect.Ge_logstar.create ~name:"x.ge[0]" mem ~n:64 in
  let sift mem =
    Groupelect.Ge_sift.create ~name:"x.ge[0]" mem
      ~write_prob:(1.0 /. sqrt (float_of_int k))
  in
  let rows =
    [
      ( "random (oblivious)",
        fun s -> Sim.Adversary.random_oblivious ~seed:(derive s ~stream:1) );
      ("read-priority (loc-obl)", fun _ -> Leaderelect.Attacks.read_priority ());
      ( "ascending-loc (rw-obl)",
        fun _ -> Leaderelect.Attacks.ascending_location_rw () );
      ( "ascending-loc (adaptive)",
        fun _ -> Leaderelect.Attacks.ascending_location () );
    ]
  in
  let bound = (2.0 *. log2 (float_of_int k)) +. 6.0 in
  List.iter
    (fun (name, adv) ->
      pr "%-22s %12.1f %14.1f %14.1f@." name (measure fig1 adv)
        (measure sift adv) bound)
    rows;
  pr
    "@.Shape check: fig-1 stays under its bound for oblivious and@.\
     location-oblivious adversaries but is blown up to ~k by any adversary@.\
     that sees pending locations; sifting resists those but is blown up by@.\
     the location-oblivious read-priority adversary. This is the paper's@.\
     separation between the two adversary models.@."

(* {1 E12 — Ablations of the design choices} *)

let run_e12 () =
  header "E12  Ablations";
  (* (a) log* cutoff: how many real GroupElect levels are needed? *)
  pr "(a) log* algorithm: cutoff of real (non-dummy) GroupElect levels@.";
  pr "%10s %14s %12s@." "cutoff" "avg max steps" "registers";
  line ();
  let n = 1024 in
  List.iter
    (fun cutoff ->
      let regs = ref 0 in
      let steps =
        avg_runs ~trials:15 (fun seed ->
            let mem = Sim.Memory.create () in
            let le = Leaderelect.Le_logstar.create ~cutoff mem ~n in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Array.init n (fun _ ctx ->
                     if Leaderelect.Le_logstar.elect le ctx then 1 else 0))
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
            regs := Sim.Memory.allocated mem;
            float_of_int (Sim.Sched.max_steps sched))
      in
      pr "%10d %14.1f %12d@." cutoff steps !regs)
    [ 1; 2; 3; 5; 10; 30 ];
  pr "@.(b) lean RatRace: elimination-path length factor (paper uses 4 log n)@.";
  pr "%10s %14s %12s@." "factor" "avg max steps" "registers";
  line ();
  (* Vary the path length by constructing paths manually around the
     primary tree: approximate by scaling n in path_length via custom
     construction — here we measure the paper's configuration against a
     backup-only configuration (factor 0 = everyone who falls off goes
     straight to the length-n path). *)
  List.iter
    (fun use_paths ->
      let regs = ref 0 in
      let steps =
        avg_runs ~trials:15 (fun seed ->
            let mem = Sim.Memory.create () in
            let k = 256 in
            let elect =
              if use_paths then begin
                let rr = Ratrace.Ratrace_lean.create mem ~n:k in
                Ratrace.Ratrace_lean.elect rr
              end
              else begin
                (* Ablated: tree + single backup path only. *)
                let tree = Ratrace.Primary_tree.create mem ~height:8 in
                let backup = Ratrace.Elim_path.create mem ~length:k in
                let top = Primitives.Le2.create mem in
                fun ctx ->
                  match Ratrace.Primary_tree.run tree ctx with
                  | Ratrace.Primary_tree.Won ->
                      Primitives.Le2.elect top ctx ~port:0
                  | Ratrace.Primary_tree.Lost -> false
                  | Ratrace.Primary_tree.Fell_off _ -> (
                      match Ratrace.Elim_path.run backup ctx with
                      | Ratrace.Elim_path.Won ->
                          Primitives.Le2.elect top ctx ~port:1
                      | Ratrace.Elim_path.Lost -> false
                      | Ratrace.Elim_path.Fell_off ->
                          failwith "backup overflow")
              end
            in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Array.init 256 (fun _ ctx -> if elect ctx then 1 else 0))
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
            regs := Sim.Memory.allocated mem;
            float_of_int (Sim.Sched.max_steps sched))
      in
      pr "%10s %14.1f %12d@."
        (if use_paths then "4 log n" else "none")
        steps !regs)
    [ true; false ];
  pr
    "    (average-case steps barely differ: the paths exist for the@.\
     \     adaptive-adversary w.h.p. bound of Claim 3.2, not the mean)@.";
  pr "@.(c) 2-process duel: win threshold (the -3 is load-bearing)@.";
  pr "%10s %16s@." "threshold" "avg max steps";
  line ();
  (* Only the safe -3 is runnable as-is (the -2 variant is unsafe; its
     violation is demonstrated by the model checker in the test suite);
     here we measure -3 against -4 and -5 to show the cost of slack. *)
  List.iter
    (fun thr ->
      let steps =
        avg_runs ~trials:400 (fun seed ->
            let mem = Sim.Memory.create () in
            let a = Sim.Register.create mem and b = Sim.Register.create mem in
            let duel port ctx =
              let mine, other = if port = 0 then (a, b) else (b, a) in
              let rec loop pos =
                let o = Sim.Ctx.read ctx other in
                if o >= pos + 2 then 0
                else if o <= pos - thr then 1
                else begin
                  let pos' =
                    pos + (if Sim.Ctx.flip_bool ctx then 1 else 0)
                  in
                  if pos' > pos then Sim.Ctx.write ctx mine pos';
                  loop pos'
                end
              in
              loop 0
            in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                [| duel 0; duel 1 |]
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:2));
            float_of_int (Sim.Sched.max_steps sched))
      in
      pr "%10d %16.1f@." thr steps)
    [ 3; 4; 5 ]

(* {1 E13 — Extension: randomized consensus, the conclusion's mirror} *)

let run_e13 () =
  header
    "E13  Extension - conciliator/adopt-commit consensus vs the oblivious \
     adversary";
  pr "%8s %14s %14s %16s@." "k" "avg max steps" "p95 steps" "agreement rate";
  line ();
  List.iter
    (fun k ->
      let trials = 60 in
      let per_trial =
        Engine.run ~domains:!domains ~trials ~seed:base_seed
          (fun ~trial:_ ~seed ->
            let mem = Sim.Memory.create () in
            let c = Consensus.Consensus_n.create mem ~n:k in
            let sched =
              Sim.Sched.create ~seed:(derive seed ~stream:0)
                (Array.init k (fun i ctx ->
                     Consensus.Consensus_n.propose c ctx (i land 1)))
            in
            Sim.Sched.run sched
              (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
            let outs = Array.map Option.get (Sim.Sched.results sched) in
            ( float_of_int (Sim.Sched.max_steps sched),
              Array.for_all (fun v -> v = outs.(0)) outs ))
      in
      let s = Sim.Stats.summarize_array (Array.map fst per_trial) in
      let agreements =
        Array.fold_left (fun a (_, ok) -> if ok then a + 1 else a) 0 per_trial
      in
      pr "%8d %14.1f %14.1f %15d%%@." k s.Sim.Stats.mean s.Sim.Stats.p95
        (100 * agreements / trials))
    [ 2; 4; 16; 64; 256 ];
  pr
    "@.Agreement must be 100%% at every k (it is deterministic via the@.\
     adopt-commit layer); the step columns show O(1) expected conciliator@.\
     rounds against the oblivious adversary.@."

(* {1 E14 — RMR complexity (the GHW [11] cost measure)} *)

let run_e14 () =
  header "E14  RMR complexity (cache-coherent model) - max RMRs vs k";
  pr "%-16s %10s %10s %10s@." "algorithm" "k=16" "k=64" "k=256";
  line ();
  let measure make k =
    avg_runs ~trials:15 (fun seed ->
        let mem = Sim.Memory.create () in
        let le = make mem ~n:256 in
        let sched =
          Sim.Sched.create ~seed:(derive seed ~stream:0)
            (Leaderelect.Le.programs le ~k)
        in
        Sim.Sched.run sched
          (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1));
        float_of_int (Sim.Sched.max_rmrs sched))
  in
  List.iter
    (fun (name, make) ->
      pr "%-16s %10.1f %10.1f %10.1f@." name (measure make 16) (measure make 64)
        (measure make 256))
    [
      ("log*", Leaderelect.Le_logstar.make);
      ("loglog", Leaderelect.Le_loglog.make);
      ("ratrace-lean", Leaderelect.Rr_le.make_lean);
      ("tournament", Leaderelect.Tournament.make);
    ];
  pr
    "@.RMRs track steps for these one-shot algorithms (few re-reads), so@.\
     the step hierarchy carries over to the RMR cost measure of Golab,@.\
     Hendler and Woelfel's O(1)-RMR leader election [11].@."

(* {1 E20 — Successor algorithms: PoisonPill steps, opt-space registers} *)

let run_e20 () =
  header
    "E20  Successor TAS - PoisonPill f(k) vs the tournament; register counts";
  let n = 1024 in
  let ks = [ 2; 4; 16; 64; 256; 1024 ] in
  pr "Expected max steps vs k (n = %d, random-oblivious):@." n;
  pr "%-16s" "algorithm";
  List.iter (fun k -> pr "%10d" k) ks;
  pr "@.";
  line ();
  List.iter
    (fun name ->
      pr "%-16s" name;
      List.iter
        (fun k ->
          let steps =
            avg_runs ~trials:10 (fun seed ->
                let o =
                  Rtas.Election.run ~seed:(derive seed ~stream:0)
                    ~algorithm:name ~n ~k
                    ~adversary:
                      (Sim.Adversary.random_oblivious
                         ~seed:(derive seed ~stream:1))
                    ()
                in
                float_of_int o.Rtas.Election.max_steps)
          in
          pr "%10.1f" steps)
        ks;
      pr "@.")
    [ "tournament"; "poison" ];
  pr "@.Registers allocated vs n (E5-style), with the Omega(log n) floor:@.";
  let sizes = [ 8; 64; 1024 ] in
  let allocate make n =
    let mem = Sim.Memory.create () in
    ignore (make mem ~n);
    Sim.Memory.allocated mem
  in
  pr "%-16s" "algorithm";
  List.iter (fun n -> pr "%10d" n) sizes;
  pr "@.";
  line ();
  List.iter
    (fun (name, make) ->
      pr "%-16s" name;
      List.iter (fun n -> pr "%10d" (allocate make n)) sizes;
      pr "@.")
    [
      ("tournament", Leaderelect.Tournament.make);
      ("poison", Leaderelect.Poison_le.make);
      ("opt-space", Leaderelect.Opt_space_le.make);
    ];
  pr "%-16s" "Omega(log n)";
  List.iter
    (fun n -> pr "%10d" (Lowerbound.Covering.register_lower_bound ~n))
    sizes;
  pr
    "@.@.Shape check: the poison step row sits at or below the tournament's@.\
     Theta(log k) curve for large k (O(log log k) constant-size rounds);@.\
     opt-space tracks the Omega(log n) register floor within a constant@.\
     factor while the tournament and poison rows grow linearly in n.@."

let all : (string * string * (unit -> unit)) list =
  [
    ("e1", "Lemma 2.2: GroupElect performance", run_e1);
    ("e2", "Theorem 2.3: log* election", run_e2);
    ("e3", "Section 2.3: sifting + loglog", run_e3);
    ("e4", "Section 3: lean RatRace steps", run_e4);
    ("e5", "Space table", run_e5);
    ("e6", "Theorem 4.1: combination", run_e6);
    ("e7", "Theorem 5.1: covering lower bound", run_e7);
    ("e8", "Theorem 6.1: 2-process lower bound", run_e8);
    ("e9", "Cross-algorithm comparison", run_e9);
    ("e10", "Multicore wall-clock", run_e10);
    ("e11", "Adversary-class separations", run_e11);
    ("e12", "Design ablations", run_e12);
    ("e13", "Extension: oblivious-adversary consensus", run_e13);
    ("e14", "RMR complexity", run_e14);
    ("e20", "Successor TAS: PoisonPill + opt-space", run_e20);
  ]
