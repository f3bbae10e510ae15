(* Command-line driver: run a single election or TAS with a chosen
   algorithm, adversary, size and seed, and print the outcome.

   dune exec bin/rtas_cli.exe -- run --algorithm log* -n 64 -k 16
   dune exec bin/rtas_cli.exe -- list *)

open Cmdliner

let algorithm =
  let doc =
    Printf.sprintf "Algorithm to run; one of: %s."
      (String.concat ", " (Rtas.Registry.names ()))
  in
  Arg.(value & opt string "log*" & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc)

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"System size (max processes).")

let k_arg =
  Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc:"Participants (contention).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let adversary_arg =
  let doc =
    "Adversary: round-robin, random (oblivious), attack (adaptive \
     ascending-location), or crashy (random with crashes)."
  in
  Arg.(value & opt string "random" & info [ "adversary" ] ~docv:"ADV" ~doc)

let tas_arg =
  Arg.(value & flag & info [ "tas" ] ~doc:"Wrap the election as a test-and-set.")

let domains_arg =
  Arg.(
    value
    & opt int (Engine.default_domains ())
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Domains for the parallel trial engine (results are identical \
           for every value). Defaults to $(b,RTAS_DOMAINS) or the \
           recommended domain count.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")

(* Sub-seeds for the adversary are derived from the run seed on
   dedicated streams (1 = schedule randomness, 2 = crash randomness),
   matching the convention used throughout bench/experiments.ml. *)
let make_adversary name seed =
  match name with
  | "round-robin" -> Sim.Adversary.round_robin ()
  | "random" ->
      Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1)
  | "attack" -> Leaderelect.Attacks.ascending_location ()
  | "crashy" ->
      Sim.Adversary.random_crashes ~seed:(Sim.Rng.derive seed ~stream:2)
        ~crash_prob:0.02
        (Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1))
  | other -> failwith (Printf.sprintf "unknown adversary %S" other)

let run_cmd =
  let run algorithm n k seed adversary tas trace =
    let seed = Int64.of_int seed in
    let adv = make_adversary adversary seed in
    let outcome =
      if tas then
        Rtas.Election.run_tas ~seed ~adversary:adv ~algorithm ~n ~k ()
      else Rtas.Election.run ~seed ~adversary:adv ~algorithm ~n ~k ()
    in
    Fmt.pr "%a@." Rtas.Election.pp_outcome outcome;
    Fmt.pr "results: %a@."
      Fmt.(array ~sep:sp (option ~none:(any "-") int))
      outcome.Rtas.Election.results;
    if trace then
      List.iter
        (fun e -> Fmt.pr "%a@." Sim.Op.pp_event e)
        (Sim.Sched.trace outcome.Rtas.Election.sched)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one election (or TAS) and print the outcome.")
    Term.(
      const run $ algorithm $ n_arg $ k_arg $ seed_arg $ adversary_arg
      $ tas_arg $ trace_arg)

let list_cmd =
  let list () =
    List.iter
      (fun e ->
        Fmt.pr "%-16s %-30s %-22s %-12s (%s)@." e.Rtas.Registry.name
          e.Rtas.Registry.steps e.Rtas.Registry.space
          (Fmt.str "%a" Sim.Sched.pp_klass e.Rtas.Registry.adversary)
          e.Rtas.Registry.reference)
      Rtas.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the available algorithms and their bounds.")
    Term.(const list $ const ())

let registry_cmd =
  (* Capability inventory: registers at a sample n on the simulator
     backend, plus whether the entry carries an Atomic.t (`mc`) and a
     flat-kernel (`flat`) implementation, with their register counts.
     Exits non-zero if a dual entry's Atomic.t register count disagrees
     with the simulator's — the backends allocate through one functor,
     so a divergence is a wiring bug. *)
  let registry n =
    Fmt.pr "%-16s %10s %10s %10s %-14s %-22s %s@." "name"
      (Printf.sprintf "regs(n=%d)" n)
      "mc" "flat" "adversary" "space" "reference";
    let ok = ref true in
    List.iter
      (fun e ->
        let mem = Sim.Memory.create () in
        ignore (e.Rtas.Registry.make mem ~n);
        let regs = Sim.Memory.allocated mem in
        let mc =
          match e.Rtas.Registry.make_mc with
          | None -> "-"
          | Some f ->
              let mc_mem = Backend.Atomic_mem.create () in
              ignore (f mc_mem ~n);
              let mc_regs = Backend.Atomic_mem.allocated mc_mem in
              if mc_regs <> regs then begin
                ok := false;
                Printf.sprintf "%d!=sim" mc_regs
              end
              else string_of_int mc_regs
        in
        let flat =
          match e.Rtas.Registry.make_flat with
          | None -> "-"
          | Some f -> string_of_int (f ~n).Flatsim.Machine.p_regs
        in
        Fmt.pr "%-16s %10d %10s %10s %-14s %-22s %s@." e.Rtas.Registry.name
          regs mc flat
          (Fmt.str "%a" Sim.Sched.pp_klass e.Rtas.Registry.adversary)
          e.Rtas.Registry.space e.Rtas.Registry.reference)
      Rtas.Registry.all;
    if not !ok then begin
      Fmt.epr "registry: backend register counts diverge@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "registry"
       ~doc:
         "List every registry entry with its capabilities (register count, \
          Atomic.t and flat-kernel coverage).")
    Term.(const registry $ n_arg)

let sweep_cmd =
  let trials_arg =
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"T" ~doc:"Trials per point.")
  in
  let sweep algorithm n adversary trials seed domains =
    let recommended = Domain.recommended_domain_count () in
    if domains > recommended then
      Fmt.epr
        "sweep: --domains %d exceeds the host's recommended %d; the table is \
         identical either way, the extra domains only add overhead@."
        domains recommended;
    Fmt.pr "%8s %14s %12s %12s@." "k" "avg max steps" "avg rmrs" "registers";
    let rec points k acc = if k > n then List.rev acc else points (k * 4) (k :: acc) in
    List.iter
      (fun k ->
        (* Trials per point are independent: fan out over the engine.
           Trial seeds derive from the sweep seed, so the table is
           identical for every --domains value. *)
        let runs =
          Engine.run ~domains ~trials ~seed:(Int64.of_int seed)
            (fun ~trial:_ ~seed ->
              let o =
                Rtas.Election.run ~seed
                  ~adversary:(make_adversary adversary seed) ~algorithm ~n ~k
                  ()
              in
              ( float_of_int o.Rtas.Election.max_steps,
                float_of_int o.Rtas.Election.max_rmrs,
                o.Rtas.Election.registers ))
        in
        let steps = Array.map (fun (s, _, _) -> s) runs in
        let rmrs = Array.map (fun (_, r, _) -> r) runs in
        let regs = if trials = 0 then 0 else (fun (_, _, g) -> g) runs.(0) in
        Fmt.pr "%8d %14.1f %12.1f %12d@." k
          (Sim.Stats.mean_array steps)
          (Sim.Stats.mean_array rmrs)
          regs)
      (points 2 [])
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep contention k and print step/RMR complexity curves.")
    Term.(
      const sweep $ algorithm $ n_arg $ adversary_arg $ trials_arg $ seed_arg
      $ domains_arg)

let covering_cmd =
  let covering n =
    Fmt.pr "Theorem 5.1 machinery at n = %d:@." n;
    Fmt.pr "  f(n-4) = %d; guaranteed registers: %d@."
      (Lowerbound.Covering.f ~n (n - 4))
      (Lowerbound.Covering.register_lower_bound ~n);
    List.iter
      (fun (name, make) ->
        let r = Lowerbound.Covering_exec.run ~make ~n ~seed:11L () in
        Fmt.pr "  %-14s %a@." name Lowerbound.Covering_exec.pp_report r)
      [
        ("tournament", Leaderelect.Tournament.make);
        ("ratrace-lean", Leaderelect.Rr_le.make_lean);
      ]
  in
  let n_pow2 =
    Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Power of two >= 8.")
  in
  Cmd.v
    (Cmd.info "covering"
       ~doc:"Run the Lemma 5.4 covering-argument rounds on real algorithms.")
    Term.(const covering $ n_pow2)

let yao_cmd =
  let yao t trials =
    let make () =
      let mem = Sim.Memory.create () in
      let le = Primitives.Le2.create mem in
      let tas =
        Primitives.Tas.create mem ~elect:(fun ctx ->
            Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
      in
      Array.init 2 (fun _ ctx -> Primitives.Tas.apply tas ctx)
    in
    let p = Lowerbound.Yao.measure ~trials ~make ~t () in
    Fmt.pr
      "t=%d: tested %d schedules; max Pr[>= t steps] = %.4f; 1/4^t = %.6f; %s@."
      p.Lowerbound.Yao.t p.Lowerbound.Yao.schedules_tested
      p.Lowerbound.Yao.max_prob p.Lowerbound.Yao.bound
      (if p.Lowerbound.Yao.max_prob >= p.Lowerbound.Yao.bound then
         "bound respected"
       else "BOUND VIOLATED")
  in
  let t_arg = Arg.(value & opt int 4 & info [ "t" ] ~docv:"T" ~doc:"Step bound t.") in
  let trials_arg =
    Arg.(value & opt int 400 & info [ "trials" ] ~docv:"R" ~doc:"Runs per schedule.")
  in
  Cmd.v
    (Cmd.info "yao" ~doc:"Reproduce the Theorem 6.1 two-process lower bound.")
    Term.(const yao $ t_arg $ trials_arg)

let chaos_cmd =
  let algorithms_arg =
    let doc = "Comma-separated simulated algorithms to sweep." in
    Arg.(
      value
      & opt (list string) [ "log*"; "loglog"; "tournament"; "ratrace-lean" ]
      & info [ "algorithms" ] ~docv:"NAMES" ~doc)
  in
  let probs_arg =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.05; 0.2 ]
      & info [ "probs" ] ~docv:"P,.." ~doc:"Crash probabilities to sweep.")
  in
  let trials_arg =
    Arg.(
      value & opt int 25
      & info [ "trials" ] ~docv:"T"
          ~doc:"Trials per (implementation, probability) point.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECS" ~doc:"Watchdog per-trial timeout.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"R"
          ~doc:"Watchdog retries (with rotated seeds) per trial.")
  in
  let le_flag =
    Arg.(
      value & flag
      & info [ "le" ] ~doc:"Check leader election instead of test-and-set.")
  in
  let mc_flag =
    Arg.(
      value & flag
      & info [ "mc" ]
          ~doc:
            "Also stress the real-multicore TAS implementations \
             (crash-before-invoke fault model on true domains).")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Explicit fault plan replacing the default crash storm, e.g. \
             $(b,crash:0@3,storm:0.05,halt@400). Only applies to the \
             simulated sweep.")
  in
  let chaos algorithms n k seed probs trials timeout retries le mc plan_str
      domains =
    let plan =
      match plan_str with
      | None -> None
      | Some s -> (
          match Fault.Plan.of_string s with
          | Ok p -> Some p
          | Error msg ->
              Fmt.epr "rtas chaos: %s@." msg;
              exit 2)
    in
    List.iter
      (fun algorithm ->
        if Rtas.Registry.find algorithm = None then begin
          Fmt.epr "rtas chaos: unknown algorithm %S; try one of: %s@." algorithm
            (String.concat ", " (Rtas.Registry.names ()));
          exit 2
        end)
      algorithms;
    let mode = if le then Fault.Chaos.Le else Fault.Chaos.Tas in
    let seed64 = Int64.of_int seed in
    (* One Probe registry accumulates the whole sweep's fault totals. *)
    let metrics = Obs.Metrics.create () in
    Fmt.pr "%-14s %-4s %6s %7s %8s %8s %9s %10s@." "impl" "mode" "prob"
      "trials" "crashes" "timeouts" "viols" "steps";
    let failures = ref [] in
    let note impl seeds last_failure violations timeouts =
      if violations > 0 || timeouts > 0 then
        failures := (impl, seeds, last_failure) :: !failures
    in
    List.iter
      (fun algorithm ->
        List.iter
          (fun crash_prob ->
            let r =
              Fault.Chaos.run_point ~timeout ~retries ~domains ~metrics ?plan
                ~mode ~algorithm ~n ~k ~crash_prob ~trials ~seed:seed64 ()
            in
            Fmt.pr "%a@." Fault.Chaos.pp_report r;
            note r.Fault.Chaos.impl r.Fault.Chaos.failure_seeds
              r.Fault.Chaos.last_failure r.Fault.Chaos.violations
              r.Fault.Chaos.timeouts)
          probs)
      algorithms;
    if mc then
      List.iter
        (fun impl ->
          List.iter
            (fun crash_prob ->
              let r =
                Fault.Mc_chaos.run_point ~timeout:(Float.max timeout 10.0)
                  ~retries ~impl ~k ~crash_prob ~trials ~seed:seed64 ()
              in
              Fmt.pr "%a@." Fault.Mc_chaos.pp_report r;
              note r.Fault.Mc_chaos.impl r.Fault.Mc_chaos.failure_seeds
                r.Fault.Mc_chaos.last_failure r.Fault.Mc_chaos.violations
                r.Fault.Mc_chaos.timeouts)
            probs)
        (Fault.Mc_chaos.impl_names ());
    Fmt.pr "%a" Obs.Metrics.pp_snapshot (Obs.Metrics.snapshot metrics);
    match List.rev !failures with
    | [] -> Fmt.pr "chaos: no safety violations (seed %d).@." seed
    | failures ->
        List.iter
          (fun (impl, seeds, last_failure) ->
            Fmt.pr "FAIL %s: reproduce with seeds [%a]%a@." impl
              Fmt.(list ~sep:semi int64)
              seeds
              Fmt.(
                option
                  (any " (last watchdog failure: " ++ Fault.Watchdog.pp_reason
                 ++ any ")"))
              last_failure)
          failures;
        exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash-fault chaos sweep: run every implementation under crash \
          storms and check unique-winner + crash-aware linearizability.")
    Term.(
      const chaos $ algorithms_arg $ n_arg $ k_arg $ seed_arg $ probs_arg
      $ trials_arg $ timeout_arg $ retries_arg $ le_flag $ mc_flag $ plan_arg
      $ domains_arg)

(* {1 Probe subcommands: trace + profile} *)

let target_arg =
  let doc =
    Printf.sprintf "Profiling target; one of: %s."
      (String.concat ", " (Rtas.Probe_target.names ()))
  in
  Arg.(value & opt string "rr_classic" & info [ "algo" ] ~docv:"NAME" ~doc)

let find_target name =
  match Rtas.Probe_target.find name with
  | Some t -> t
  | None ->
      Fmt.epr "rtas: unknown profiling target %S; try one of: %s@." name
        (String.concat ", " (Rtas.Probe_target.names ()));
      exit 2

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the Perfetto-loadable trace-event JSON.")
  in
  let trace algo n k seed adversary out =
    let target = find_target algo in
    let k = min k n in
    let seed = Int64.of_int seed in
    let chrome = Obs.Chrome_trace.create () in
    let collector = Obs.Collector.create () in
    let snapshot =
      Obs.with_sink
        (Obs.tee (Obs.Chrome_trace.sink chrome) (Obs.Collector.sink collector))
        (fun () ->
          let mem = Sim.Memory.create () in
          let progs = target.Rtas.Probe_target.pt_programs mem ~n ~k in
          let sched = Sim.Sched.create ~seed progs in
          Sim.Sched.run sched (make_adversary adversary seed);
          Obs.Collector.snapshot collector)
    in
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Chrome_trace.output chrome oc);
    Fmt.pr "wrote %s (%d events); load it at ui.perfetto.dev@." out
      (Obs.Chrome_trace.n_events chrome);
    Fmt.pr "%a" Rtas.Probe_report.pp_profile snapshot
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one execution with the Probe tracer attached and export a \
          Perfetto-loadable Chrome trace (one track per process, phase \
          spans, per-step instants) plus the per-phase attribution table.")
    Term.(
      const trace $ target_arg $ n_arg $ k_arg $ seed_arg $ adversary_arg
      $ out_arg)

let profile_cmd =
  let algos_arg =
    let doc =
      Printf.sprintf "Comma-separated profiling targets; any of: %s."
        (String.concat ", " (Rtas.Probe_target.names ()))
    in
    Arg.(
      value
      & opt (list string) [ "ge_logstar"; "chain"; "rr_classic" ]
      & info [ "algos" ] ~docv:"NAMES" ~doc)
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"T" ~doc:"Trials per target.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the per-target profiles as one JSON document.")
  in
  let profile algos n k trials seed adversary domains json =
    let k = min k n in
    let seed64 = Int64.of_int seed in
    let profiles =
      List.map
        (fun name ->
          let target = find_target name in
          (* Per-worker arena + collector: the collector rides in via
             [probe]; each trial resets the arena and re-runs. The arena
             itself is built unobserved (sink set aside) — [Sched.reset]
             re-reads the ambient sink, so every trial is probed while
             the one-off construction pollutes no phase accounting. *)
          let _stats, collectors =
            Engine.run_probed ~domains ~trials ~seed:seed64
              ~probe:(fun () ->
                let c = Obs.Collector.create () in
                (c, Obs.Collector.sink c))
              ~local:(fun c ->
                let cur = Obs.Probe.current () in
                Obs.Probe.uninstall ();
                let mem = Sim.Memory.create () in
                let progs = target.Rtas.Probe_target.pt_programs mem ~n ~k in
                let sched =
                  Sim.Sched.create ~seed:(Sim.Rng.derive seed64 ~stream:0)
                    progs
                in
                (match cur with Some s -> Obs.Probe.install s | None -> ());
                let winners =
                  Obs.Metrics.counter (Obs.Collector.metrics c) "winners"
                in
                (mem, progs, sched, winners))
              (fun (mem, progs, sched, winners) ~trial:_ ~seed ->
                Sim.Memory.reset mem;
                Sim.Sched.reset ~seed sched progs;
                Sim.Sched.run sched (make_adversary adversary seed);
                for pid = 0 to Sim.Sched.n sched - 1 do
                  if Sim.Sched.result sched pid = Some 1 then
                    Obs.Metrics.incr winners
                done)
          in
          let snapshot =
            List.fold_left Obs.Collector.merge Obs.Collector.empty_snapshot
              (List.map Obs.Collector.snapshot collectors)
          in
          (name, snapshot))
        algos
    in
    List.iter
      (fun (name, snapshot) ->
        Fmt.pr "== %s (n=%d k=%d trials=%d adversary=%s) ==@." name n k trials
          adversary;
        Fmt.pr "%a@." Rtas.Probe_report.pp_profile snapshot)
      profiles;
    match json with
    | None -> ()
    | Some file ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf
          (Printf.sprintf
             "{\"n\":%d,\"k\":%d,\"trials\":%d,\"seed\":%d,\"algos\":{" n k
             trials seed);
        List.iteri
          (fun i (name, snapshot) ->
            if i > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":%s" name
                 (Rtas.Probe_report.snapshot_to_json snapshot)))
          profiles;
        Buffer.add_string buf "}}\n";
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Buffer.output_buffer oc buf);
        Fmt.pr "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run batches of trials with per-phase Probe collectors attached \
          (one per engine worker, merged after the join) and print \
          per-phase step/RMR attribution tables.")
    Term.(
      const profile $ algos_arg $ n_arg $ k_arg $ trials_arg $ seed_arg
      $ adversary_arg $ domains_arg $ json_arg)

let mc_cmd =
  let mc_domains_arg =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"D"
          ~doc:"Contending domains (one slot each).")
  in
  let trials_arg =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"T" ~doc:"Trials per algorithm.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Watchdog bound per trial: a stuck Atomic_mem run fails within \
             this wall-clock budget with a per-domain progress diagnosis \
             instead of hanging the suite.")
  in
  let mc domains trials seed timeout =
    if domains < 1 then failwith "mc: --domains must be >= 1";
    let failed = ref false in
    Fmt.pr "%-16s %8s %7s %10s  %s@." "algorithm" "domains" "trials"
      "registers" "unique winner";
    List.iter
      (fun (e : Rtas.Registry.entry) ->
        match e.Rtas.Registry.make_mc with
        | None -> ()
        | Some make_mc ->
            let registers = ref 0 in
            let violations = ref 0 in
            for trial = 1 to trials do
              let mem = Backend.Atomic_mem.create () in
              let le = make_mc mem ~n:domains in
              registers := Backend.Atomic_mem.allocated mem;
              (* The domain race goes through the watchdog: the monitor
                 polls per-slot done-flags and, past the timeout, leaks
                 the stuck domains and reports which slots made it. *)
              match
                Fault.Watchdog.race ~timeout ~n:domains
                  ~label:(fun slot ->
                    Printf.sprintf "%s slot %d" e.Rtas.Registry.name slot)
                  (fun slot ->
                    let rng =
                      Random.State.make [| seed; trial; slot; 0x3C0 |]
                    in
                    le.Leaderelect.Le.elect
                      (Backend.Atomic_mem.ctx ~rng ~slot ()))
              with
              | Ok results ->
                  let winners =
                    Array.fold_left
                      (fun acc won -> if won then acc + 1 else acc)
                      0 results
                  in
                  if winners <> 1 then incr violations
              | Error stuck ->
                  Fmt.epr "mc: %s trial %d (seed %d) %a@."
                    e.Rtas.Registry.name trial seed Fault.Watchdog.pp_stuck
                    stuck;
                  exit 1
            done;
            if !violations > 0 then failed := true;
            Fmt.pr "%-16s %8d %7d %10d  %s@." e.Rtas.Registry.name domains
              trials !registers
              (if !violations = 0 then "ok"
               else Printf.sprintf "VIOLATED in %d/%d trials" !violations trials))
      Rtas.Registry.all;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Run every registry algorithm that has a multicore backend on real \
          domains (one per slot) and check that each trial elects a unique \
          winner. Exits nonzero on any violation, and within bounded \
          wall-clock on a stuck run (watchdog timeout + per-domain \
          diagnosis).")
    Term.(const mc $ mc_domains_arg $ trials_arg $ seed_arg $ timeout_arg)

let service_cmd =
  let alg_arg =
    let doc =
      Printf.sprintf
        "Algorithm backing every key; one of: %s. The atomic backend needs a \
         dual-backend entry (%s)."
        (String.concat ", " (Rtas.Registry.names ()))
        (String.concat ", " (Rtas.Registry.dual_names ()))
    in
    Arg.(value & opt string "log*" & info [ "alg" ] ~docv:"NAME" ~doc)
  in
  let backend_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("atomic", `Atomic) ]) `Sim
      & info [ "backend" ] ~docv:"sim|atomic"
          ~doc:
            "sim: deterministic discrete-event run (bit-reproducible for a \
             fixed seed). atomic: real domains racing Atomic.t CASes, one \
             tick = 1us.")
  in
  let kernel_arg =
    Arg.(
      value
      & opt (enum [ ("effect", `Effect); ("flat", `Flat) ]) `Effect
      & info [ "kernel" ] ~docv:"effect|flat"
          ~doc:
            "Election-round execution kernel for the sim backend. $(b,flat) \
             runs rounds on the preallocated flat machine (allocation-free, \
             bit-identical report); it needs a flat-registered algorithm \
             ($(b,rtas flat) lists them) and is incompatible with \
             $(b,--plan).")
  in
  let arrival_arg =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "arrival" ] ~docv:"poisson|bursty" ~doc:"Arrival process.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.02
      & info [ "rate" ] ~docv:"R" ~doc:"Arrivals per tick (base rate).")
  in
  let clients_arg =
    Arg.(
      value & opt int 1000
      & info [ "clients" ] ~docv:"C" ~doc:"Total arrivals to generate.")
  in
  let keys_arg =
    Arg.(value & opt int 16 & info [ "keys" ] ~docv:"K" ~doc:"Lock keys.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"S" ~doc:"Key-choice skew; 0 is uniform.")
  in
  let backoff_arg =
    Arg.(
      value & opt string "exp"
      & info [ "backoff" ] ~docv:"POLICY"
          ~doc:
            "Loser retry policy: $(b,immediate), $(b,exp) (capped \
             exponential, deterministic jitter; optionally \
             $(b,exp:BASE:CAP)), or $(b,rand) (uniform; optionally \
             $(b,rand:MAX)).")
  in
  let deadline_arg =
    Arg.(
      value & opt float 20_000.0
      & info [ "deadline" ] ~docv:"D"
          ~doc:"Per-client deadline in ticks; also the recovery lease.")
  in
  let hold_arg =
    Arg.(
      value & opt float 64.0
      & info [ "hold" ] ~docv:"H" ~doc:"Ticks a winner holds its key.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt ~vopt:0.15 float 0.0
      & info [ "chaos" ] ~docv:"P"
          ~doc:
            "Holder-crash probability per round: the winner dies without \
             releasing and the key must recover through round-stamp expiry. \
             $(b,--chaos) alone means 0.15.")
  in
  let max_waiters_arg =
    Arg.(
      value & opt int 64
      & info [ "max-waiters" ] ~docv:"W"
          ~doc:"Per-key queue capacity (sim); arrivals beyond it are shed.")
  in
  let contenders_arg =
    Arg.(
      value & opt int 32
      & info [ "contenders" ] ~docv:"N"
          ~doc:"Election width per round (sim).")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan applied inside every sim election round, e.g. \
             $(b,storm:0.05).")
  in
  let events_arg =
    Arg.(
      value
      & opt (enum [ ("wheel", `Wheel); ("heap", `Heap) ]) `Wheel
      & info [ "events" ] ~docv:"wheel|heap"
          ~doc:
            "Sim event engine. $(b,wheel) (default) is the hierarchical \
             timing wheel: O(1) schedule/advance, allocation-free in steady \
             state. $(b,heap) is the binary-heap oracle. The report is \
             byte-identical either way.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Keyspace partitions for the sim backend (key mod S). The \
             report is byte-identical for any value; with $(b,--domains) > \
             1 the shards run in parallel.")
  in
  let latency_arg =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("exact", `Exact); ("hist", `Hist) ]) `Auto
      & info [ "latency" ] ~docv:"auto|exact|hist"
          ~doc:
            "Latency recording (sim). $(b,exact) keeps every sample; \
             $(b,hist) uses the bounded-memory log-bucketed histogram \
             (percentiles within ~1.6%); $(b,auto) picks exact up to 65536 \
             clients and hist beyond.")
  in
  let on_shed_arg =
    Arg.(
      value
      & opt (enum [ ("drop", `Drop); ("retry", `Retry) ]) `Drop
      & info [ "on-shed" ] ~docv:"drop|retry"
          ~doc:
            "What a full queue does to a joining client (sim). $(b,drop) \
             rejects it terminally; $(b,retry) models a client-side SDK \
             retry loop — the client re-enters backoff and bounces until \
             completion or deadline, and $(b,shed) counts rejection events.")
  in
  let svc_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Watchdog wall-clock bound for the atomic backend.")
  in
  let svc_domains_arg =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains: atomic-backend racers, or the sim shard pool \
             when $(b,--shards) > 1 (the sim result never depends on it).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the JSON report here instead of stdout (the human \
             summary then prints to stdout, otherwise to stderr).")
  in
  let window_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Telemetry window width in ticks (sim: virtual ticks; atomic: \
             wall-clock microseconds). Only meaningful with one of \
             $(b,--telemetry), $(b,--openmetrics) or $(b,--trace-out).")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Record windowed telemetry (per-window counters, gauges and \
             latency quantiles) and write it here as JSON.")
  in
  let openmetrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:
            "Record windowed telemetry and write it here as OpenMetrics \
             text exposition.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record windowed telemetry and write a Perfetto (Chrome \
             trace-event JSON) file here: per-key election-round spans \
             plus one counter track per telemetry series, in virtual \
             microseconds. Sim backend with $(b,--shards) 1 only.")
  in
  let service alg backend kernel arrival rate clients keys zipf backoff
      deadline hold chaos max_waiters contenders plan_str events shards latency
      on_shed timeout domains seed out window telemetry_out openmetrics_out
      trace_out =
    (* Bad input — an unparsable policy or plan, an unknown algorithm or
       capability, an out-of-range config field — is a usage error. *)
    let usage msg =
      Fmt.epr "rtas service: %s@." msg;
      exit 2
    in
    let arrival =
      match arrival with
      | `Poisson -> Service.Arrival.Poisson { rate }
      | `Bursty ->
          Service.Arrival.Bursty
            { rate; burst_len = 500.0; idle_len = 2000.0; boost = 8.0 }
    in
    let backoff =
      let num x =
        match float_of_string_opt x with
        | Some f -> f
        | None ->
            usage (Printf.sprintf "bad --backoff %S: %S is not a number" backoff x)
      in
      match String.split_on_char ':' backoff with
      | [ "immediate" ] -> Service.Backoff.Immediate
      | [ "exp" ] -> Service.Backoff.Exp { base = 8.0; cap = 512.0 }
      | [ "exp"; b; c ] -> Service.Backoff.Exp { base = num b; cap = num c }
      | [ "rand" ] -> Service.Backoff.Rand { max = 256.0 }
      | [ "rand"; m ] -> Service.Backoff.Rand { max = num m }
      | _ -> usage (Printf.sprintf "bad --backoff %S" backoff)
    in
    let plan =
      Option.map
        (fun s ->
          match Fault.Plan.of_string s with Ok p -> p | Error msg -> usage msg)
        plan_str
    in
    let seed = Int64.of_int seed in
    let sink =
      try
        if
          telemetry_out <> None || openmetrics_out <> None
          || trace_out <> None
        then Some (Service.Telemetry.sink ~trace:(trace_out <> None) ~window ())
        else None
      with Invalid_argument msg -> usage msg
    in
    let report =
      try
        match backend with
        | `Sim ->
            Service.Driver.run ~domains ?telemetry:sink
              {
                (Service.Driver.default ~algorithm:alg) with
                clients;
                keys;
                zipf_s = zipf;
                arrival;
                backoff;
                deadline;
                hold;
                max_waiters;
                contenders;
                crash_prob = chaos;
                plan;
                kernel;
                events;
                shards;
                latency;
                on_shed;
                seed;
              }
        | `Atomic ->
            if plan_str <> None then
              Fmt.epr "rtas service: --plan only applies to the sim backend@.";
            if kernel <> `Effect then
              Fmt.epr
                "rtas service: --kernel only applies to the sim backend@.";
            if trace_out <> None then
              Fmt.epr
                "rtas service: --trace-out only applies to the sim backend@.";
            Service.Mc_driver.run ?telemetry:sink
              {
                (Service.Mc_driver.default ~algorithm:alg) with
                clients;
                keys;
                zipf_s = zipf;
                arrival;
                backoff;
                deadline;
                hold;
                crash_prob = chaos;
                workers = domains;
                timeout;
                seed;
              }
      with Invalid_argument msg -> usage msg
    in
    let json = Service.Report.to_json report in
    let write_file file contents =
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents)
    in
    (* The human summary, and with a sink the per-window table, go to
       stderr — or to stdout when the JSON report goes to a file. *)
    let human =
      match out with
      | None ->
          print_string json;
          Fmt.stderr
      | Some file ->
          write_file file json;
          Fmt.pr "wrote %s@." file;
          Fmt.stdout
    in
    Fmt.pf human "%a@." Service.Report.pp report;
    let mismatched =
      match sink with
      | None -> false
      | Some s ->
          let snap = s.Service.Telemetry.snapshot in
          Fmt.pf human "%a@." Obs.Timeseries.pp snap;
          Option.iter
            (fun f ->
              write_file f (Obs.Timeseries.to_json snap);
              Fmt.epr "telemetry: wrote %s@." f)
            telemetry_out;
          Option.iter
            (fun f ->
              write_file f (Obs.Timeseries.to_openmetrics snap);
              Fmt.epr "telemetry: wrote %s@." f)
            openmetrics_out;
          Option.iter
            (fun f ->
              match s.Service.Telemetry.trace_json with
              | Some t ->
                  write_file f t;
                  Fmt.epr "telemetry: wrote %s@." f
              | None -> Fmt.epr "rtas service: no trace produced for %s@." f)
            trace_out;
          (* Every windowed counter must sum to its report total. *)
          let ms = Service.Telemetry.counter_mismatches snap report in
          List.iter
            (fun (name, sum, total) ->
              Fmt.epr "rtas service: %s windows sum to %d, report says %d@."
                name sum total)
            ms;
          ms <> []
    in
    if report.Service.Report.livelocked || mismatched then exit 1
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Run the open-loop lock service: Poisson/bursty arrivals over a \
          Zipfian keyspace, each key a resettable (round-stamped) election, \
          losers retrying under backoff, with deadlines, overload shed and \
          optional holder-crash chaos. Emits a JSON report with throughput \
          and p50/p99/p999 latency.")
    Term.(
      const service $ alg_arg $ backend_arg $ kernel_arg $ arrival_arg
      $ rate_arg $ clients_arg $ keys_arg $ zipf_arg $ backoff_arg
      $ deadline_arg $ hold_arg $ chaos_arg $ max_waiters_arg $ contenders_arg
      $ plan_arg $ events_arg $ shards_arg $ latency_arg $ on_shed_arg
      $ svc_timeout_arg $ svc_domains_arg $ seed_arg $ out_arg $ window_arg
      $ telemetry_arg $ openmetrics_arg $ trace_out_arg)

(* {1 The flat-kernel smoke: effect-parity plus a real domain fan-out}

   `make flat-smoke` runs this; it is the CLI face of test_flatsim's
   differential suite — every flat-registered algorithm is run on both
   kernels over fresh seeds and must produce identical winners, result
   vectors and spans, then a flat trial batch is fanned out over real
   domains and must be domain-count independent. *)

let flat_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"S"
          ~doc:"Seeds per algorithm for the flat-vs-effect parity check.")
  in
  let trials_arg =
    Arg.(
      value & opt int 64
      & info [ "trials" ] ~docv:"T"
          ~doc:"Trials for the engine domain-independence check.")
  in
  let flat n k seeds trials seed domains =
    let k = min k n in
    let base = Int64.of_int seed in
    let failures = ref 0 in
    List.iter
      (fun (e : Rtas.Registry.entry) ->
        match e.Rtas.Registry.make_flat with
        | None -> ()
        | Some mk ->
            let m = Flatsim.Machine.create ~procs:k (mk ~n) in
            let mismatches = ref 0 in
            for i = 0 to seeds - 1 do
              let s = Sim.Rng.derive base ~stream:i in
              (* The effect oracle and its flat compilation, on the same
                 derived schedule/adversary streams. *)
              let mem = Sim.Memory.create () in
              let le = e.Rtas.Registry.make mem ~n in
              let sched =
                Sim.Sched.create ~seed:(Sim.Rng.derive s ~stream:0)
                  (Leaderelect.Le.programs le ~k)
              in
              Sim.Sched.run sched
                (Sim.Adversary.random_oblivious
                   ~seed:(Sim.Rng.derive s ~stream:1));
              Flatsim.Machine.reset ~seed:(Sim.Rng.derive s ~stream:0) m;
              Flatsim.Machine.run_random m
                ~seed:(Sim.Rng.derive s ~stream:1);
              if
                not
                  (Flatsim.Machine.results m = Sim.Sched.results sched
                  && Flatsim.Machine.time m = Sim.Sched.time sched)
              then incr mismatches
            done;
            failures := !failures + !mismatches;
            Fmt.pr "%-14s %d/%d seeds bit-identical to the effect path \
                    (n=%d k=%d)@."
              e.Rtas.Registry.name (seeds - !mismatches) seeds n k)
      Rtas.Registry.all;
    (* Fan a flat trial batch out over real domains: per-worker machine
       arenas, per-trial derived seeds, outcomes must not depend on the
       domain count. *)
    let prog = Flatsim.Programs.logstar ~n in
    let outcomes d =
      Engine.run_local ~domains:d ~trials ~seed:base
        ~local:(fun () -> Flatsim.Machine.create ~procs:k prog)
        (fun m ~trial:_ ~seed ->
          Flatsim.Machine.reset ~seed:(Sim.Rng.derive seed ~stream:0) m;
          Flatsim.Machine.run_random m ~seed:(Sim.Rng.derive seed ~stream:1);
          let w = ref (-1) in
          for pid = 0 to k - 1 do
            if m.Flatsim.Machine.results.(pid) = 1 then w := pid
          done;
          (!w, Flatsim.Machine.time m))
    in
    let one = outcomes 1 in
    let many = outcomes domains in
    let independent = one = many in
    Fmt.pr
      "engine: %d flat log* trials identical at --domains 1 vs %d: %b@."
      trials domains independent;
    if !failures > 0 || not independent then begin
      Fmt.epr "rtas flat: kernel divergence detected@.";
      exit 1
    end;
    Fmt.pr "flat: OK (%s)@."
      (String.concat ", " (Rtas.Registry.flat_names ()))
  in
  Cmd.v
    (Cmd.info "flat"
       ~doc:
         "Check the flat kernel against the effect simulator: every \
          flat-registered algorithm must be bit-identical on both kernels \
          over fresh seeds, and a flat trial batch fanned out over real \
          domains must be domain-count independent.")
    Term.(
      const flat $ n_arg $ k_arg $ seeds_arg $ trials_arg $ seed_arg
      $ domains_arg)

let main =
  Cmd.group
    (Cmd.info "rtas" ~version:"1.0.0"
       ~doc:"Randomized test-and-set (Giakkoupis-Woelfel PODC 2012) playground.")
    [
      run_cmd;
      list_cmd;
      registry_cmd;
      sweep_cmd;
      covering_cmd;
      yao_cmd;
      chaos_cmd;
      trace_cmd;
      profile_cmd;
      mc_cmd;
      service_cmd;
      flat_cmd;
    ]

let () = exit (Cmd.eval main)
