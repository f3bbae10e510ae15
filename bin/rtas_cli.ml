(* Command-line driver: run a single election or TAS with a chosen
   algorithm, adversary, size and seed, and print the outcome.

   dune exec bin/rtas_cli.exe -- run --algorithm log* -n 64 -k 16
   dune exec bin/rtas_cli.exe -- registry *)

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

let trials_arg default per =
  Arg.(
    value & opt int default
    & info [ "trials" ] ~docv:"T" ~doc:("Trials per " ^ per ^ "."))

let domains_arg =
  Arg.(
    value
    & opt int (Engine.default_domains ())
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Domains for the parallel trial engine (results are identical \
           for every value). Defaults to $(b,RTAS_DOMAINS) or the \
           recommended domain count.")

(* Bad input is a usage error: the message on stderr and exit 2, never
   an uncaught exception. *)
let usage cmd msg =
  Fmt.epr "rtas %s: %s@." cmd msg;
  exit 2

let write_file file contents =
  Out_channel.with_open_text file (fun oc -> output_string oc contents)

let require_positive cmd flag v =
  if v < 1 then usage cmd (Printf.sprintf "%s must be >= 1 (got %d)" flag v)

(* The contention an election is dimensioned for: 1 <= k <= n. *)
let require_k cmd ~n k =
  if k < 1 || k > n then
    usage cmd (Printf.sprintf "-k must be in 1..%d, the -n value (got %d)" n k)

let require_algorithm cmd flag name =
  if Rtas.Registry.find name = None then
    usage cmd
      (Printf.sprintf "unknown %s %S; try one of: %s" flag name
         (String.concat ", " (Rtas.Registry.names ())))

let parse_plan cmd =
  Option.map (fun s ->
      match Fault.Plan.of_string s with Ok p -> p | Error msg -> usage cmd msg)

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")

(* The named adversary as a function of the run seed, checked before
   any output. Sub-seeds are derived from the run seed on dedicated
   streams (1 = schedule randomness, 2 = crash randomness), matching
   the convention of the claim tables (lib/claims). *)
let make_adversary cmd name =
  let random = Claims.Measure.oblivious in
  match name with
  | "round-robin" -> fun _ -> Sim.Adversary.round_robin ()
  | "random" -> random
  | "attack" -> fun _ -> Leaderelect.Attacks.ascending_location ()
  | "crashy" ->
      fun seed ->
        Fault.Plan.apply ~seed:(Sim.Rng.derive seed ~stream:2)
          [ Fault.Plan.storm 0.02 ] (random seed)
  | other ->
      usage cmd
        (Printf.sprintf
           "unknown --adversary %S; try one of: round-robin, random, attack, \
            crashy"
           other)

let run_cmd =
  let run algorithm n k seed adversary tas trace =
    require_positive "run" "-n" n;
    require_algorithm "run" "--algorithm" algorithm;
    require_k "run" ~n k;
    let seed = Int64.of_int seed in
    let adv = make_adversary "run" adversary seed in
    let outcome =
      if tas then
        Rtas.Election.run_tas ~seed ~record_trace:trace ~adversary:adv
          ~algorithm ~n ~k ()
      else
        Rtas.Election.run ~seed ~record_trace:trace ~adversary:adv ~algorithm
          ~n ~k ()
    in
    Fmt.pr "%a@." Rtas.Election.pp_outcome outcome;
    Fmt.pr "results: %a@."
      Fmt.(hbox (array ~sep:sp (option ~none:(any "-") int)))
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

let registry_cmd =
  (* Capability inventory: registers at a sample n on the simulator
     backend and on Atomic.t (`mc`), plus whether the entry carries a
     flat-kernel (`flat`) implementation, with its register count, then
     the paper's bounds: steps, adversary class and space. Exits
     non-zero if an entry's Atomic.t register count disagrees with the
     simulator's — the backends allocate through one functor, so a
     divergence is a wiring bug. *)
  let registry n =
    require_positive "registry" "-n" n;
    let ok = ref true in
    let row e =
      let mem = Sim.Memory.create () in
      let (_ : Leaderelect.Le.t) = e.Rtas.Registry.make mem ~n in
      let regs = Sim.Memory.allocated mem in
      let mc_mem = Backend.Atomic_mem.create () in
      let (_ : Backend.Atomic_mem.ctx Leaderelect.Le.elect) =
        e.Rtas.Registry.make_mc mc_mem ~n
      in
      let mc_regs = Backend.Atomic_mem.allocated mc_mem in
      let mc =
        if mc_regs = regs then string_of_int mc_regs
        else begin
          ok := false;
          Printf.sprintf "%d!=sim" mc_regs
        end
      in
      let flat =
        match e.Rtas.Registry.make_flat with
        | None -> "-"
        | Some f -> string_of_int (f ~n).Flatsim.Machine.p_regs
      in
      let { Rtas.Registry.name; steps; adversary; space; reference; _ } = e in
      [ name; string_of_int regs; mc; flat; steps;
        Fmt.str "%a" Sim.Sched.pp_klass adversary; space; reference ]
    in
    let rows =
      [ "name"; Printf.sprintf "regs(n=%d)" n; "mc"; "flat"; "steps";
        "adversary"; "space"; "reference" ]
      :: List.map row Rtas.Registry.all
    in
    (* Each column is as wide as its widest cell; the register counts
       are right-aligned, the last column is not padded. *)
    let widths =
      List.fold_left (List.map2 (fun w c -> max w (String.length c)))
        (List.hd rows |> List.map (fun _ -> 0)) rows
    in
    let last = List.length widths - 1 in
    List.iter
      (fun cells ->
        List.iteri
          (fun i (w, c) ->
            let fill = String.make (w - String.length c) ' ' in
            if i = last then Fmt.pr "%s@." c
            else if i >= 1 && i <= 3 then Fmt.pr "%s%s  " fill c
            else Fmt.pr "%s%s  " c fill)
          (List.combine widths cells))
      rows;
    if not !ok then begin
      Fmt.epr "registry: backend register counts diverge@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "registry"
       ~doc:
         "List every registry entry with its capabilities (register count, \
          Atomic.t and flat-kernel coverage) and its bounds (steps, \
          adversary class, space).")
    Term.(const registry $ n_arg)

let sweep_cmd =
  let sweep algorithm n adversary trials seed domains =
    require_algorithm "sweep" "--algorithm" algorithm;
    require_positive "sweep" "-n" n;
    require_positive "sweep" "--trials" trials;
    require_positive "sweep" "--domains" domains;
    let adversary = make_adversary "sweep" adversary in
    Fmt.pr "%8s %14s %12s %12s@." "k" "avg max steps" "avg rmrs" "registers";
    let rec points k acc = if k > n then List.rev acc else points (k * 4) (k :: acc) in
    List.iter
      (fun k ->
        (* Trial seeds derive from the sweep seed, so the table is
           identical for every --domains value. *)
        let s =
          Claims.Measure.elections ~domains
            ~adversary ~trials
            ~seed:(Int64.of_int seed) ~algorithm ~n ~k ()
        in
        Fmt.pr "%8d %14.1f %12.1f %12d@." k s.Claims.Measure.steps
          s.Claims.Measure.rmrs s.Claims.Measure.registers)
      (points 2 [])
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep contention k and print step/RMR complexity curves.")
    Term.(
      const sweep $ algorithm $ n_arg $ adversary_arg $ trials_arg 20 "point"
      $ seed_arg $ domains_arg)

(* The paper's claims: every experiment table of EXPERIMENTS.md with one
   PASS/FAIL line per declared check. *)
let claims_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiments to run (e1 … e20); all of them by default.")
  in
  let claims ids domains =
    require_positive "claims" "--domains" domains;
    let chosen =
      match ids with
      | [] -> Claims.Experiments.all
      | ids ->
          List.map
            (fun id ->
              match Claims.Experiments.find id with
              | Some e -> e
              | None ->
                  usage "claims"
                    (Printf.sprintf "unknown experiment %S; try one of: %s" id
                       (String.concat ", "
                          (List.map
                             (fun e -> e.Claims.Experiments.id)
                             Claims.Experiments.all))))
            ids
    in
    let failed =
      List.concat_map
        (Claims.Experiments.report ~domains Claims.Experiments.Full Fmt.stdout)
        chosen
    in
    match failed with
    | [] -> Fmt.pr "@.claims: every check passed@."
    | failed ->
        Fmt.pr "@.claims: %d check(s) failed@." (List.length failed);
        exit 1
  in
  Cmd.v
    (Cmd.info "claims"
       ~doc:
         "Reproduce the paper's experiments (EXPERIMENTS.md) and check \
          their claims: prints each table with one PASS/FAIL line per \
          check and exits 1 if any check fails.")
    Term.(const claims $ ids_arg $ domains_arg)

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
            "Also stress every registry election, and the native \
             Atomic.exchange reference, as a TAS on real domains \
             (crash-before-invoke fault model).")
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
    let plan = parse_plan "chaos" plan_str in
    List.iter (require_algorithm "chaos" "--algorithms") algorithms;
    require_positive "chaos" "-n" n;
    require_k "chaos" ~n k;
    require_positive "chaos" "--trials" trials;
    if not (Float.is_finite timeout && timeout > 0.0) then
      usage "chaos"
        (Printf.sprintf "--timeout must be finite and > 0 (got %g)" timeout);
    let mode = if le then Fault.Chaos.Le else Fault.Chaos.Tas in
    let sweep mode algorithms =
      Fault.Chaos.sweep ~timeout ~retries ~domains ?plan ~mode ~algorithms ~n
        ~k ~probs ~trials ~seed:(Int64.of_int seed) ()
    in
    let reports =
      try
        sweep mode algorithms
        @ if mc then sweep Fault.Chaos.Mc (Fault.Chaos.impl_names ()) else []
      with Invalid_argument msg -> usage "chaos" msg
    in
    Fmt.pr "%a%a" Fault.Chaos.pp_table reports Fault.Chaos.pp_totals reports;
    let failures =
      List.filter
        (fun r -> r.Fault.Chaos.violations > 0 || r.Fault.Chaos.timeouts > 0)
        reports
    in
    match failures with
    | [] -> Fmt.pr "chaos: no safety violations (seed %d).@." seed
    | failures ->
        List.iter
          (fun { Fault.Chaos.impl; failure_seeds; last_failure; _ } ->
            Fmt.pr "FAIL %s: reproduce with seeds [%a]%a@." impl
              Fmt.(list ~sep:semi int64)
              failure_seeds
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
      $ trials_arg 25 "(implementation, probability) point"
      $ timeout_arg $ retries_arg $ le_flag $ mc_flag $ plan_arg
      $ domains_arg)

(* {1 Probe subcommands: trace + profile} *)

(* A profiling target builds its structure in [mem] for [n] processes
   and returns one program per participant ([k] of them); a program
   returns 1 for a winner. Every registry election is a target, and so
   is [ge_logstar], one Figure-1 GroupElect round: not an election, so
   it has no registry row, but profiling it measures f(k) directly
   (phase: ge_round). *)
let target_names () = "ge_logstar" :: Rtas.Registry.names ()

let find_target cmd name =
  if name = "ge_logstar" then (fun mem ~n ~k ->
    let ge = Groupelect.Ge_logstar.create mem ~n in
    Array.init k (fun _ ctx -> if ge.Groupelect.Ge.elect ctx then 1 else 0))
  else
    match Rtas.Registry.find name with
    | Some e ->
        fun mem ~n ~k -> Leaderelect.Le.programs (e.Rtas.Registry.make mem ~n) ~k
    | None ->
        usage cmd
          (Printf.sprintf "unknown profiling target %S; try one of: %s" name
             (String.concat ", " (target_names ())))

let target_arg =
  let doc =
    Printf.sprintf "Profiling target; one of: %s."
      (String.concat ", " (target_names ()))
  in
  Arg.(value & opt string "ratrace" & info [ "algo" ] ~docv:"NAME" ~doc)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the Perfetto-loadable trace-event JSON.")
  in
  let trace algo n k seed adversary out =
    require_positive "trace" "-n" n;
    require_positive "trace" "-k" k;
    let programs = find_target "trace" algo in
    let adversary = make_adversary "trace" adversary in
    let k = min k n in
    let seed = Int64.of_int seed in
    let chrome = Obs.Chrome_trace.create () in
    let collector = Obs.Collector.create () in
    let snapshot =
      Obs.with_sink
        (Obs.tee (Obs.Chrome_trace.sink chrome) (Obs.Collector.sink collector))
        (fun () ->
          let mem = Sim.Memory.create () in
          let sched = Sim.Sched.create ~seed (programs mem ~n ~k) in
          Sim.Sched.run sched (adversary seed);
          Obs.Collector.snapshot collector)
    in
    write_file out (Obs.Chrome_trace.to_string chrome);
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
        (String.concat ", " (target_names ()))
    in
    Arg.(
      value
      & opt (list string) [ "ge_logstar"; "log*"; "ratrace" ]
      & info [ "algos" ] ~docv:"NAMES" ~doc)
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the per-target profiles as one JSON document.")
  in
  let profile algos n k trials seed adversary domains json =
    require_positive "profile" "-n" n;
    require_positive "profile" "-k" k;
    require_positive "profile" "--trials" trials;
    let adv = make_adversary "profile" adversary in
    let k = min k n in
    let seed64 = Int64.of_int seed in
    (* Every name is checked before any target runs. *)
    let targets = List.map (fun name -> (name, find_target "profile" name)) algos in
    let profiles =
      List.map
        (fun (name, programs) ->
          (* Per-worker arena + collector: the collector and the
             worker's winner count ride in via [probe]; each trial
             resets the arena and re-runs. The arena itself is built
             unobserved (sink set aside) — [Sched.reset] re-reads the
             ambient sink, so every trial is probed while the one-off
             construction pollutes no phase accounting. *)
          let _stats, handles =
            Engine.run_probed ~domains ~trials ~seed:seed64
              ~probe:(fun () ->
                let c = Obs.Collector.create () in
                ((c, ref 0), Obs.Collector.sink c))
              ~local:(fun (_, winners) ->
                let cur = Obs.Probe.current () in
                Obs.Probe.uninstall ();
                let mem = Sim.Memory.create () in
                let progs = programs mem ~n ~k in
                let sched =
                  Sim.Sched.create ~seed:(Sim.Rng.derive seed64 ~stream:0)
                    progs
                in
                (match cur with Some s -> Obs.Probe.install s | None -> ());
                (mem, progs, sched, winners))
              (fun (mem, progs, sched, winners) ~trial:_ ~seed ->
                Sim.Memory.reset mem;
                Sim.Sched.reset ~seed sched progs;
                Sim.Sched.run sched (adv seed);
                for pid = 0 to Sim.Sched.n sched - 1 do
                  if Sim.Sched.result sched pid = Some 1 then incr winners
                done)
          in
          let snapshot =
            List.fold_left Obs.Collector.merge Obs.Collector.empty_snapshot
              (List.map (fun (c, _) -> Obs.Collector.snapshot c) handles)
          in
          let winners = List.fold_left (fun a (_, w) -> a + !w) 0 handles in
          (name, snapshot, winners))
        targets
    in
    List.iter
      (fun (name, snapshot, winners) ->
        Fmt.pr "== %s (n=%d k=%d trials=%d adversary=%s) ==@." name n k trials
          adversary;
        Fmt.pr "%awinners = %d@.@." Rtas.Probe_report.pp_profile snapshot
          winners)
      profiles;
    Option.iter
      (fun file ->
        let algos =
          List.map
            (fun (name, snapshot, winners) ->
              Printf.sprintf "\"%s\":%s" (Obs.Json.escape name)
                (Rtas.Probe_report.snapshot_to_json ~winners snapshot))
            profiles
        in
        write_file file
          (Printf.sprintf
             "{\"n\":%d,\"k\":%d,\"trials\":%d,\"seed\":%d,\"algos\":{%s}}\n"
             n k trials seed (String.concat "," algos));
        Fmt.pr "wrote %s@." file)
      json
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run batches of trials with per-phase Probe collectors attached \
          (one per engine worker, merged after the join) and print \
          per-phase step/RMR attribution tables.")
    Term.(
      const profile $ algos_arg $ n_arg $ k_arg $ trials_arg 200 "target"
      $ seed_arg $ adversary_arg $ domains_arg $ json_arg)

let mc_cmd =
  let mc_domains_arg =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"D"
          ~doc:"Contending domains (one slot each).")
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
    require_positive "mc" "--domains" domains;
    require_positive "mc" "--trials" trials;
    if not (Float.is_finite timeout && timeout > 0.0) then
      usage "mc" (Printf.sprintf "--timeout must be finite and > 0 (got %g)" timeout);
    let failed = ref false in
    Fmt.pr "%-16s %8s %7s %10s  %s@." "algorithm" "domains" "trials"
      "registers" "unique winner";
    List.iter
      (fun (e : Rtas.Registry.entry) ->
        let registers = ref 0 in
        let violations = ref 0 in
        for trial = 1 to trials do
          let mem = Backend.Atomic_mem.create () in
          let elect = e.Rtas.Registry.make_mc mem ~n:domains in
          registers := Backend.Atomic_mem.allocated mem;
          (* The domain race goes through the watchdog: the monitor
             polls per-slot done-flags and, past the timeout, leaks the
             stuck domains and reports which slots made it. *)
          match
            Fault.Watchdog.race ~timeout ~n:domains
              ~label:(fun slot ->
                Printf.sprintf "%s slot %d" e.Rtas.Registry.name slot)
              (fun slot ->
                let rng = Random.State.make [| seed; trial; slot; 0x3C0 |] in
                elect (Backend.Atomic_mem.ctx ~rng ~slot ()))
          with
          | Ok results ->
              let winners =
                Array.fold_left
                  (fun acc won -> if won then acc + 1 else acc)
                  0 results
              in
              if winners <> 1 then incr violations
          | Error stuck ->
              Fmt.epr "mc: %s trial %d (seed %d) %a@." e.Rtas.Registry.name
                trial seed Fault.Watchdog.pp_stuck stuck;
              exit 1
        done;
        if !violations > 0 then failed := true;
        Fmt.pr "%-16s %8d %7d %10d  %s@." e.Rtas.Registry.name domains trials
          !registers
          (if !violations = 0 then "ok"
           else Printf.sprintf "VIOLATED in %d/%d trials" !violations trials))
      Rtas.Registry.all;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Run every registry algorithm on real domains (one per slot) and \
          check that each trial elects a unique winner. Exits nonzero on \
          any violation, and within bounded wall-clock on a stuck run \
          (watchdog timeout + per-domain diagnosis).")
    Term.(
      const mc $ mc_domains_arg $ trials_arg 20 "algorithm" $ seed_arg
      $ timeout_arg)

let service_cmd =
  let alg_arg =
    let doc =
      Printf.sprintf
        "Algorithm backing every key; one of: %s."
        (String.concat ", " (Rtas.Registry.names ()))
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
             tick = 1us; a sim-only flag away from its default is a usage \
             error there.")
  in
  let kernel_arg =
    Arg.(
      value
      & opt (enum [ ("effect", `Effect); ("flat", `Flat) ]) `Effect
      & info [ "kernel" ] ~docv:"effect|flat"
          ~doc:
            "Election-round execution kernel for the sim backend. $(b,flat) \
             runs rounds on the preallocated flat machine (allocation-free, \
             bit-identical report, $(b,--plan) included); it needs a \
             flat-registered algorithm ($(b,rtas registry) lists them).")
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
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Keyspace partitions for the sim backend (key mod S). The \
             report is byte-identical for any value. The shards run on \
             min(S, $(b,--domains)) event loops in parallel; each loop \
             draws the arrival stream once and runs the keys of its shards.")
  in
  let latency_arg =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("exact", `Exact); ("hist", `Hist) ]) `Auto
      & info [ "latency" ] ~docv:"auto|exact|hist"
          ~doc:
            "Latency recording. $(b,exact) keeps every sample; \
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
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Watchdog wall-clock bound for the atomic backend (default 30). \
             The sim backend rejects it.")
  in
  let svc_domains_arg =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains: atomic-backend racers, or the sim backend's \
             event loops when $(b,--shards) > 1, one per domain (the sim \
             result never depends on it).")
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
      deadline hold chaos max_waiters contenders plan shards latency
      on_shed timeout domains seed out window telemetry_out openmetrics_out
      trace_out =
    (* Bad input — an unparsable policy or plan, an unknown algorithm or
       capability, an out-of-range config field — is a usage error. *)
    let usage msg = usage "service" msg in
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
    let cfg =
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
        plan = parse_plan "service" plan;
        kernel;
        shards;
        latency;
        on_shed;
        seed = Int64.of_int seed;
      }
    in
    if backend = `Sim && timeout <> None then
      usage "--timeout only applies to the atomic backend";
    let sink, report =
      try
        let sink =
          if List.exists Option.is_some [ telemetry_out; openmetrics_out; trace_out ]
          then Some (Service.Telemetry.sink ~trace:(trace_out <> None) ~window ())
          else None
        in
        ( sink,
          match backend with
          | `Sim -> Service.Driver.run ~domains ?telemetry:sink cfg
          | `Atomic -> Service.Mc_driver.run ~domains ?timeout ?telemetry:sink cfg )
      with Invalid_argument msg -> usage msg
    in
    let json = Service.Report.to_json report in
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
          let export f contents =
            write_file f contents;
            Fmt.epr "telemetry: wrote %s@." f
          in
          Option.iter
            (fun f -> export f (Obs.Timeseries.to_json snap))
            telemetry_out;
          Option.iter
            (fun f -> export f (Obs.Timeseries.to_openmetrics snap))
            openmetrics_out;
          Option.iter
            (fun f ->
              match s.Service.Telemetry.trace_json with
              | Some t -> export f t
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
      $ plan_arg $ shards_arg $ latency_arg $ on_shed_arg
      $ svc_timeout_arg $ svc_domains_arg $ seed_arg $ out_arg $ window_arg
      $ telemetry_arg $ openmetrics_arg $ trace_out_arg)

let main =
  Cmd.group
    (Cmd.info "rtas" ~version:"1.0.0"
       ~doc:"Randomized test-and-set (Giakkoupis-Woelfel PODC 2012) playground.")
    [
      run_cmd;
      registry_cmd;
      sweep_cmd;
      claims_cmd;
      chaos_cmd;
      trace_cmd;
      profile_cmd;
      mc_cmd;
      service_cmd;
    ]

let () = exit (Cmd.eval main)
