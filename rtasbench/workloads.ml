(* The four workloads: what one repetition sets up, runs and checks.

   A repetition ("rep") is one fresh process: it builds the workload's
   inputs from the seed (set-up), runs one fixed batch of work through
   the library (the timed call), and checks the outputs. The program
   under test only ever sees the generated configuration. *)

let derive = Sim.Rng.derive

(* {1 trials: a Monte-Carlo election batch over every registry entry} *)

let n = 64
let ks = [| 1; 2; 16; 64 |]
let nk = Array.length ks

(* Trials per k, frozen so that each entry costs roughly the same share
   of a rep on a 2-vCPU x86 host (flat entries 0.5-50 us per trial,
   effect entries 2-500 us): without this the effect entries would hide
   the flat ones. [ratrace] sits at the floor of one trial per k: at
   n = 64 it allocates 3.17M registers, and each trial resets all of
   them (0.1-0.4 s). *)
let trials_per_k =
  [
    ("log*", 14_000);
    ("loglog", 1_600);
    ("aa", 800);
    ("ratrace", 1);
    ("ratrace-lean", 230);
    ("tournament", 2_400);
    ("combined-log*", 300);
    ("combined-loglog", 340);
    ("sift", 6_600);
    ("poison", 6_600);
    ("opt-space", 2_400);
    ("elim", 2_000);
  ]

(* Registry names as metric-name components: [log*] becomes [logstar]. *)
let metric_name (e : Rtas.Registry.entry) =
  String.concat "star" (String.split_on_char '*' e.Rtas.Registry.name)

(* One way of running a trial of an entry at contention [ks.(kidx)]:
   the flat machine, or the effect simulator on a reusable arena.
   [reset] and [run] are the two calls the traced rep times apart. *)
type kernel = {
  reset : kidx:int -> seed:int64 -> unit;
  run : kidx:int -> seed:int64 -> unit;
  winner : kidx:int -> int;  (** the winning pid; -1 for none, -2 for several *)
  ticks : kidx:int -> int;  (** the trial's length in scheduler steps *)
}

let flat_kernel m =
  let open Flatsim in
  {
    reset =
      (fun ~kidx ~seed ->
        Machine.reset ~seed:(derive seed ~stream:0) ~procs:ks.(kidx) m);
    run =
      (fun ~kidx:_ ~seed -> Machine.run_random m ~seed:(derive seed ~stream:1));
    winner =
      (fun ~kidx ->
        let w = ref (-1) in
        for pid = 0 to ks.(kidx) - 1 do
          if m.Machine.status.(pid) = 1 && m.Machine.results.(pid) = 1 then
            w := if !w = -1 then pid else -2
        done;
        !w);
    ticks = (fun ~kidx:_ -> Machine.time m);
  }

let effect_kernel mem progs scheds =
  {
    reset =
      (fun ~kidx ~seed ->
        Sim.Memory.reset mem;
        Sim.Sched.reset ~seed:(derive seed ~stream:0) scheds.(kidx) progs.(kidx));
    run =
      (fun ~kidx ~seed ->
        Sim.Sched.run scheds.(kidx)
          (Sim.Adversary.random_oblivious ~seed:(derive seed ~stream:1)));
    winner =
      (fun ~kidx ->
        let w = ref (-1) in
        for pid = 0 to ks.(kidx) - 1 do
          match Sim.Sched.status scheds.(kidx) pid with
          | Sim.Sched.Finished 1 -> w := if !w = -1 then pid else -2
          | _ -> ()
        done;
        !w);
    ticks = (fun ~kidx -> Sim.Sched.time scheds.(kidx));
  }

type batch = {
  entry : Rtas.Registry.entry;
  count : int;  (** trials per k *)
  registers : int;  (** [Sim.Memory.allocated] at n = 64 *)
  kernel : kernel;  (** what the workload runs: flat when the entry has it *)
  oracle : kernel option;  (** the effect simulator, for flat entries *)
}

let build_batch ~quick (e : Rtas.Registry.entry) =
  let count =
    match List.assoc_opt e.Rtas.Registry.name trials_per_k with
    | Some c -> if quick then max 1 (c / 100) else c
    | None ->
        failwith
          (Printf.sprintf "trials: no frozen trial count for registry entry %S"
             e.Rtas.Registry.name)
  in
  let mem = Sim.Memory.create () in
  let le = e.Rtas.Registry.make mem ~n in
  let progs = Array.map (fun k -> Leaderelect.Le.programs le ~k) ks in
  let scheds = Array.map (fun p -> Sim.Sched.create p) progs in
  let eff = effect_kernel mem progs scheds in
  let registers = Sim.Memory.allocated mem in
  match e.Rtas.Registry.make_flat with
  | Some mk ->
      let m = Flatsim.Machine.create ~procs:n (mk ~n) in
      { entry = e; count; registers; kernel = flat_kernel m; oracle = Some eff }
  | None -> { entry = e; count; registers; kernel = eff; oracle = None }

let build_batches ~quick = List.map (build_batch ~quick) Rtas.Registry.all

(* Where batch [bi]'s trials at [kidx] start in the outcome arrays, and
   the Engine seed they run under. *)
let slot bi kidx = (bi * nk) + kidx
let batch_seed seed bi kidx = derive seed ~stream:(slot bi kidx)

type outcomes = { winner : int array; ticks : int array }

(* What the traced rep records per (batch, k) slot: time spent in the
   kernel's reset and run calls, and in the whole Engine.run_into. *)
type trials_trace = {
  spans : Spans.t;
  reset_ns : int array;
  run_ns : int array;
  engine_ns : int array;
  minor_words : float array;
}

let trials_trace spans batches =
  let slots = List.length batches * nk in
  {
    spans;
    reset_ns = Array.make slots 0;
    run_ns = Array.make slots 0;
    engine_ns = Array.make slots 0;
    minor_words = Array.make slots 0.0;
  }

(* Spans kept per (batch, k) for the Perfetto view; the accumulators
   cover every trial. *)
let sampled_trials = 4

(* The timed call: every batch, every k, one Engine.run_into on one
   domain over the prebuilt arena. Returns the minor words the batch
   allocated. *)
let run_trials ?trace batches ~seed =
  let total = List.fold_left (fun a b -> a + (b.count * nk)) 0 batches in
  let out = { winner = Array.make total 0; ticks = Array.make total 0 } in
  let minor = ref 0.0 and off = ref 0 in
  List.iteri
    (fun bi b ->
      let kn = b.kernel in
      for kidx = 0 to nk - 1 do
        let base = !off and s = slot bi kidx in
        let store trial =
          out.winner.(base + trial) <- kn.winner ~kidx;
          out.ticks.(base + trial) <- kn.ticks ~kidx
        in
        let body =
          match trace with
          | None ->
              fun () ~trial ~seed ->
                kn.reset ~kidx ~seed;
                kn.run ~kidx ~seed;
                store trial
          | Some tr ->
              fun () ~trial ~seed ->
                let t0 = Spans.now_ns () in
                kn.reset ~kidx ~seed;
                let t1 = Spans.now_ns () in
                kn.run ~kidx ~seed;
                let t2 = Spans.now_ns () in
                tr.reset_ns.(s) <- tr.reset_ns.(s) + (t1 - t0);
                tr.run_ns.(s) <- tr.run_ns.(s) + (t2 - t1);
                if trial < sampled_trials then begin
                  Spans.record tr.spans ~name:"reset" ~tid:bi ~start:t0 ~stop:t1 ();
                  Spans.record tr.spans ~name:"run" ~tid:bi ~start:t1 ~stop:t2 ()
                end;
                store trial
        in
        let t0 = Spans.now_ns () in
        let ws =
          Engine.run_into ~domains:1 ~trials:b.count
            ~seed:(batch_seed seed bi kidx)
            ~local:(fun () -> ())
            body
        in
        let t1 = Spans.now_ns () in
        let words = ws.(0).Engine.w_minor_words in
        minor := !minor +. words;
        (match trace with
        | None -> ()
        | Some tr ->
            tr.engine_ns.(s) <- t1 - t0;
            tr.minor_words.(s) <- words;
            Spans.record tr.spans ~name:"Engine.run_into" ~tid:bi ~start:t0
              ~stop:t1
              ~args:(Printf.sprintf "\"k\":%d,\"trials\":%d" ks.(kidx) b.count)
              ());
        off := !off + b.count
      done)
    batches;
  (out, !minor)

(* Flat entries must agree with the effect simulator, trial for trial,
   on (winner, steps): the first [n_oracle] trials of every k are rerun
   on the oracle with the same derived seeds the Engine used. *)
let n_oracle = 32

let max_failures = 20

let check_trials batches ~seed out =
  let failures = ref [] and n_failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr n_failures;
        if !n_failures <= max_failures then failures := s :: !failures)
      fmt
  in
  let off = ref 0 in
  List.iteri
    (fun bi b ->
      for kidx = 0 to nk - 1 do
        let base = !off in
        for t = 0 to b.count - 1 do
          if out.winner.(base + t) < 0 then
            fail "%s k=%d trial %d: %s" b.entry.Rtas.Registry.name ks.(kidx) t
              (if out.winner.(base + t) = -1 then "no winner" else "several winners")
        done;
        (match b.oracle with
        | None -> ()
        | Some o ->
            let bseed = batch_seed seed bi kidx in
            for t = 0 to min n_oracle b.count - 1 do
              let tseed = derive bseed ~stream:t in
              o.reset ~kidx ~seed:tseed;
              o.run ~kidx ~seed:tseed;
              let w = o.winner ~kidx and st = o.ticks ~kidx in
              if w <> out.winner.(base + t) || st <> out.ticks.(base + t) then
                fail "%s k=%d trial %d: flat (%d, %d) <> effect (%d, %d)"
                  b.entry.Rtas.Registry.name ks.(kidx) t out.winner.(base + t)
                  out.ticks.(base + t) w st
            done);
        off := !off + b.count
      done)
    batches;
  if !n_failures > max_failures then
    failures := Printf.sprintf "... %d failed checks in all" !n_failures :: !failures;
  List.rev !failures

let digest_outcomes out =
  let b = Buffer.create (16 * Array.length out.winner) in
  Array.iteri
    (fun i w ->
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int out.ticks.(i));
      Buffer.add_char b ';')
    out.winner;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 The lock-service workloads} *)

type config = Service.Driver.config

type service = {
  config : quick:bool -> seed:int64 -> config;
  window : float option;  (** a telemetry sink with this window, if any *)
  differential : quick:bool -> seed:int64 -> (string * config * config) option;
      (** two configurations that must give byte-identical reports *)
}

let scaled ~quick clients = if quick then max 1 (clients / 100) else clients

let base = Service.Driver.default ~algorithm:"tournament"

let svc_zipf =
  {
    config =
      (fun ~quick ~seed ->
        {
          base with
          Service.Driver.clients = scaled ~quick 800_000;
          keys = 4096;
          zipf_s = 0.99;
          arrival = Service.Arrival.Poisson { rate = 0.1 };
          contenders = 64;
          hold = 64.0;
          max_waiters = 64;
          backoff = Service.Backoff.Exp { base = 8.0; cap = 512.0 };
          on_shed = `Drop;
          kernel = `Flat;
          events = `Wheel;
          latency = `Hist;
          seed;
        });
    window = None;
    differential = (fun ~quick:_ ~seed:_ -> None);
  }

let overload ~clients ~seed =
  {
    base with
    Service.Driver.clients;
    keys = 64;
    zipf_s = 0.0;
    arrival = Service.Arrival.Poisson { rate = 20.0 };
    backoff = Service.Backoff.Exp { base = 8.0; cap = 256.0 };
    contenders = 2;
    max_waiters = 16;
    hold = 20.0;
    on_shed = `Retry;
    kernel = `Flat;
    events = `Wheel;
    latency = `Hist;
    seed;
  }

let svc_overload =
  {
    config = (fun ~quick ~seed -> overload ~clients:(scaled ~quick 100_000) ~seed);
    window = None;
    differential =
      (fun ~quick ~seed ->
        let c = overload ~clients:(scaled ~quick 10_000) ~seed in
        Some ("wheel = heap", c, { c with Service.Driver.events = `Heap }));
  }

let scale ~clients ~shards ~seed =
  {
    base with
    Service.Driver.clients;
    keys = 256;
    zipf_s = 0.5;
    arrival = Service.Arrival.Poisson { rate = 20.0 };
    backoff = Service.Backoff.Exp { base = 8.0; cap = 512.0 };
    contenders = 2;
    max_waiters = 32;
    hold = 50.0;
    crash_prob = 0.001;
    kernel = `Flat;
    events = `Wheel;
    latency = `Hist;
    shards;
    seed;
  }

let svc_scale =
  {
    config =
      (fun ~quick ~seed -> scale ~clients:(scaled ~quick 4_000_000) ~shards:4 ~seed);
    window = Some 1000.0;
    differential =
      (fun ~quick ~seed ->
        let clients = scaled ~quick 100_000 in
        Some
          ( "shards 4 = shards 1",
            scale ~clients ~shards:4 ~seed,
            scale ~clients ~shards:1 ~seed ));
  }

let check_report (cfg : Service.Driver.config) (r : Service.Report.t) =
  let c = r.Service.Report.counts in
  if Service.Report.balanced ~shed_terminal:(cfg.on_shed = `Drop) c then []
  else [ "report is not balanced: clients are missing from its outcome counts" ]

(* {1 The workload table}

   Each workload stresses a different set of layers, so that an
   optimisation of one layer shows on one workload and leaves another
   unchanged:
   - trials: the flat and effect election kernels do all the work and
     the service layers none (ROADMAP item 2 shows here);
   - svc-zipf: a Zipf 0.99 hot spot; election rounds, mostly solo
     rounds on cold keys, are about half the time (where a solo fast
     path would show);
   - svc-overload: sustained overload with retry on shed; the wheel,
     the backoff and the driver's per-event bookkeeping do nearly all
     the work and elections almost none;
   - svc-scale: the same layers used differently: 4M pre-scheduled
     arrivals across every wheel level, 4 shards and their merge,
     telemetry on, and lease-expiry recovery after holder crashes. *)

type kind = Trials | Service of service
type t = { name : string; kind : kind }

let all =
  [
    { name = "trials"; kind = Trials };
    { name = "svc-zipf"; kind = Service svc_zipf };
    { name = "svc-overload"; kind = Service svc_overload };
    { name = "svc-scale"; kind = Service svc_scale };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The workload seed: distinct workloads draw from distinct streams of
   the seed given on the command line. *)
let seed_of w seed =
  let rec index i = function
    | [] -> 0
    | x :: rest -> if x.name = w.name then i else index (i + 1) rest
  in
  derive (Int64.of_int seed) ~stream:(index 0 all)
