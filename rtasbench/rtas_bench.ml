(* rtas_bench: the repository's declared benchmark (see README.md and
   BENCHMARK.json at the root).

     rtas_bench.exe run --workload W --seed S --seconds T --trace 0|1
     rtas_bench.exe all [--seed S] [--quick] [--out FILE]
     rtas_bench.exe compare A.json B.json [--spec BENCHMARK.json]
     rtas_bench.exe selftest --spec BENCHMARK.json
     rtas_bench.exe rep --workload W --seed S [--trace] [--checks] ...

   Every repetition runs in a fresh process ([rep]), because a user of
   the CLI pays process start, heap growth and cold caches on every
   run. The parent spawns the reps one at a time, takes medians and
   quartiles, and checks that every rep produced the same outputs. *)

module W = Workloads

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("rtas_bench: " ^ s);
      exit 2)
    fmt

let workload_names () = String.concat ", " (List.map (fun w -> w.W.name) W.all)

(* {1 Statistics} *)

(* Python's statistics.quantiles(data, n=4) (the default, exclusive
   method): the three cut points q1, median, q3. *)
let quartiles l =
  let d = Array.of_list l in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "quartiles: no data"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let median l =
  let _, m, _ = quartiles l in
  m

(* {1 Reps in child processes} *)

type rep = { json : Json.t; spawn_ns : int }

let field r k = Json.to_float (Json.member k r.json)

let spawn_rep args =
  let exe = Sys.executable_name in
  let what = String.concat " " args in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawn_ns = Spans.now_ns () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "rep" :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "rep %s failed" what);
  let lines = String.split_on_char '\n' (String.trim out) in
  match Json.parse (List.nth lines (List.length lines - 1)) with
  | json -> { json; spawn_ns }
  | exception Json.Error e -> die "rep %s: bad report (%s)" what e

let rep_args ?(extra = []) ~quick (w : W.t) ~seed =
  [ "--workload"; w.W.name; "--seed"; string_of_int seed ]
  @ (if quick then [ "--quick" ] else [])
  @ extra

(* {1 End-to-end metrics of one rep} *)

type e2e = {
  e_name : string;
  e_unit : string;
  e_better : string;
  exact : bool;
      (** a function of the workload seed alone: at one seed, any change
          means simulated behaviour changed *)
  slack : float;
      (** a worsening of at most this much, in the metric's unit, is
          within bounds whatever the relative bound says *)
  of_rep : rep -> float;
}

let e2e ?(exact = false) ?(slack = 0.0) e_name e_unit e_better of_rep =
  { e_name; e_unit; e_better; exact; slack; of_rep }

let end_to_end =
  [
    (* From spawning the rep's process to the start of its timed call.
       A service rep sets up in about 2 ms, mostly process start, which
       moves by more than any relative bound: 20 ms of slack. *)
    e2e ~slack:0.02 "setup_s" "s" "lower" (fun r ->
        float_of_int (int_of_float (field r "ready_ns") - r.spawn_ns) *. 1e-9);
    e2e "items_per_s" "items/s" "higher" (fun r -> field r "items" /. field r "wall_s");
    e2e ~exact:true "p50_ticks" "ticks" "lower" (fun r -> field r "p50_ticks");
    e2e ~exact:true "p999_ticks" "ticks" "lower" (fun r -> field r "p999_ticks");
    e2e ~exact:true "served_frac" "fraction" "higher" (fun r ->
        field r "served" /. field r "items");
    e2e "heap_mb" "MB" "lower" (fun r -> field r "heap_mb");
  ]

(* {1 A workload's reps: correctness across reps} *)

type outcome = {
  workload : W.t;
  timed : rep list;  (** in run order *)
  traced : rep option;
  all_reps : rep list;  (** every rep, warm-up and traced included *)
}

let own_failures r = List.map Json.to_string (Json.to_list (Json.member "failures" r.json))

let failures o =
  let digests =
    List.sort_uniq compare
      (List.map (fun r -> Json.to_string (Json.member "digest" r.json)) o.all_reps)
  in
  List.concat_map own_failures o.all_reps
  @
  if List.length digests > 1 then
    [ Printf.sprintf "outputs differ between reps of one seed (%d digests)"
        (List.length digests) ]
  else []

let items r = int_of_float (field r "items")
let attempted o = List.fold_left (fun a r -> a + items r) 0 o.all_reps

let failed o =
  if failures o = [] then 0
  else
    max 1
      (List.fold_left
         (fun a r -> if own_failures r <> [] then a + items r else a)
         0 o.all_reps)

(* {1 Per-layer metrics of the traced rep} *)

let per_layer o =
  match o.traced with
  | None -> []
  | Some t ->
      let untraced = median (List.map (fun r -> field r "wall_s") o.timed) in
      List.map
        (fun (k, v) -> (k, Json.to_float v))
        (Json.to_assoc (Json.member "metrics" t.json))
      @ [ ("trace.overhead_frac", (field t "wall_s" /. untraced) -. 1.0) ]

let units = lazy (List.map (fun m -> (m.Layers.name, m.Layers.unit)) (Layers.catalogue ()))
let layer_unit name = Option.value (List.assoc_opt name (Lazy.force units)) ~default:""

(* {1 Printing} *)

let print_e2e o =
  Printf.printf "== %s: %d timed reps ==\n" o.workload.W.name (List.length o.timed);
  List.iter
    (fun m ->
      let vs = List.map m.of_rep o.timed in
      let q1, med, q3 = quartiles vs in
      Printf.printf "  %-14s %14.6g %-8s IQR %.4g (%.2f%% of median)  n=%d\n" m.e_name
        med m.e_unit (q3 -. q1)
        (if med = 0.0 then 0.0 else 100.0 *. (q3 -. q1) /. med)
        (List.length vs))
    end_to_end

let print_layers o =
  match o.traced with
  | None -> ()
  | Some t -> (
      let wall = field t "wall_s" in
      let num j k = Json.to_float (Json.member k j) in
      Printf.printf "== %s: traced rep (%.3f s wall) ==\n" o.workload.W.name wall;
      Printf.printf "  reconciliation: count x unit cost per layer against that wall\n";
      let modelled =
        List.fold_left
          (fun a r ->
            let count = num r "count" and unit_ns = num r "unit_ns" in
            let s = count *. unit_ns *. 1e-9 in
            Printf.printf "    %-24s %14.0f x %10.1f ns = %8.4f s  %5.1f%%\n"
              (Json.to_string (Json.member "layer" r))
              count unit_ns s (100.0 *. s /. wall);
            a +. s)
          0.0
          (Json.to_list (Json.member "rows" t.json))
      in
      Printf.printf "    %-24s %42s %8.4f s  %5.1f%%\n" "residual" "" (wall -. modelled)
        (100.0 *. (wall -. modelled) /. wall);
      match Json.to_list (Json.member "frontier" t.json) with
      | [] -> ()
      | rows ->
          Printf.printf
            "  time-space frontier (n = %d): registers, mean steps at k = %s, ns/step\n" W.n
            (String.concat "," (Array.to_list (Array.map string_of_int W.ks)));
          List.iter
            (fun r ->
              let steps = List.map Json.to_float (Json.to_list (Json.member "steps" r)) in
              Printf.printf "    %-16s %8.0f  %s  %7.1f\n"
                (Json.to_string (Json.member "entry" r))
                (num r "registers")
                (String.concat " " (List.map (Printf.sprintf "%8.1f") steps))
                (num r "ns_per_step"))
            rows)

let print_per_layer metrics =
  List.iter (fun (k, v) -> Printf.printf "  %-40s %14.6g %s\n" k v (layer_unit k)) metrics

let metric_json v u = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let trace_path dir (w : W.t) = Filename.concat dir ("trace-" ^ w.W.name ^ ".json")

(* {1 run: the single-workload entry point} *)

let min_reps = 3

let run_cmd ~w ~seed ~seconds ~trace ~quick ~trace_dir =
  let spawn ?extra () = spawn_rep (rep_args ?extra ~quick w ~seed) in
  (* One discarded warm-up, which also runs the differential checks. *)
  let warm = spawn ~extra:[ "--checks" ] () in
  let t0 = Spans.now_s () in
  let rec loop acc =
    if List.length acc >= min_reps && Spans.now_s () -. t0 >= seconds then List.rev acc
    else loop (spawn () :: acc)
  in
  let timed = loop [] in
  let traced =
    if not trace then None
    else begin
      ensure_dir trace_dir;
      Some (spawn ~extra:[ "--trace"; "--trace-file"; trace_path trace_dir w ] ())
    end
  in
  let o =
    { workload = w; timed; traced; all_reps = (warm :: timed) @ Option.to_list traced }
  in
  print_e2e o;
  let metrics =
    if trace then begin
      print_layers o;
      let pl = per_layer o in
      print_per_layer pl;
      List.map (fun (k, v) -> (k, metric_json v (layer_unit k))) pl
    end
    else
      List.map
        (fun m -> (m.e_name, metric_json (median (List.map m.of_rep timed)) m.e_unit))
        end_to_end
  in
  let fs = failures o in
  List.iter (fun f -> Printf.printf "FAIL %s: %s\n" w.W.name f) fs;
  print_endline
    (Json.to_string_compact
       (Json.Obj
          [
            ("correct", Json.Bool (fs = []));
            ("attempted", Json.Num (float_of_int (attempted o)));
            ("failed", Json.Num (float_of_int (failed o)));
            ("metrics", Json.Obj metrics);
          ]));
  if fs <> [] then exit 1

(* {1 all: every workload, reps interleaved round-robin} *)

let summary_json o =
  List.map
    (fun m ->
      let vs = List.map m.of_rep o.timed in
      let q1, med, q3 = quartiles vs in
      ( m.e_name,
        Json.Obj
          [
            ("median", Json.Num med);
            ("q1", Json.Num q1);
            ("q3", Json.Num q3);
            ("n", Json.Num (float_of_int (List.length vs)));
            ("unit", Json.Str m.e_unit);
            ("values", Json.Arr (List.map (fun v -> Json.Num v) vs));
          ] ))
    end_to_end

let timed_reps ~quick = if quick then 1 else 5

let run_all ~seed ~quick ~trace_dir =
  ensure_dir trace_dir;
  let reps = timed_reps ~quick in
  let spawn ?extra w = (w.W.name, spawn_rep (rep_args ?extra ~quick w ~seed)) in
  (* Quick runs skip the warm-up; their single timed rep runs the
     differential checks instead. *)
  let warm = if quick then [] else List.map (spawn ~extra:[ "--checks" ]) W.all in
  let rounds =
    List.init reps (fun i ->
        let extra = if quick && i = 0 then [ "--checks" ] else [] in
        List.map (spawn ~extra) W.all)
  in
  let traced =
    List.map
      (fun w ->
        let elections =
          match w.W.kind with W.Service _ -> [ "--no-elections" ] | W.Trials -> []
        in
        spawn ~extra:([ "--trace"; "--trace-file"; trace_path trace_dir w ] @ elections) w)
      W.all
  in
  List.map
    (fun w ->
      let of_w l = List.filter_map (fun (n, r) -> if n = w.W.name then Some r else None) l in
      let timed = List.concat_map of_w rounds and traced = List.assoc w.W.name traced in
      { workload = w; timed; traced = Some traced; all_reps = of_w warm @ timed @ [ traced ] })
    W.all

(* The election layers do not depend on the service workload: [all]
   measures them once, in the trials traced rep, and reports them for
   every workload. *)
let all_per_layer outcomes =
  let is_trials o = match o.workload.W.kind with W.Trials -> true | W.Service _ -> false in
  let shared = per_layer (List.find is_trials outcomes) in
  List.map
    (fun o ->
      let own = per_layer o in
      let from_trials = List.filter (fun (k, _) -> not (List.mem_assoc k own)) shared in
      (o, List.sort compare (own @ from_trials)))
    outcomes

let all_json ~seed ~quick outcomes =
  let workload (o, pl) =
    ( o.workload.W.name,
      Json.Obj
        [
          ("correct", Json.Bool (failures o = []));
          ("end_to_end", Json.Obj (summary_json o));
          ("per_layer", Json.Obj (List.map (fun (k, v) -> (k, metric_json v (layer_unit k))) pl));
        ] )
  in
  Json.Obj
    [
      ("schema", Json.Str "rtas-bench/1");
      ("seed", Json.Num (float_of_int seed));
      ("reps", Json.Num (float_of_int (timed_reps ~quick)));
      ("quick", Json.Bool quick);
      ("workloads", Json.Obj (List.map workload (all_per_layer outcomes)));
    ]

let report_all outcomes =
  List.iter
    (fun (o, pl) ->
      print_e2e o;
      print_layers o;
      print_per_layer pl;
      List.iter (fun f -> Printf.printf "FAIL %s: %s\n" o.workload.W.name f) (failures o))
    (all_per_layer outcomes)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* {1 compare: verdicts from the declared bounds} *)

type spec_metric = { m_name : string; m_unit : string; better : string; bound : float }

let read_spec path =
  let j = Json.of_file path in
  let str k m = Json.to_string (Json.member k m) in
  let metrics key =
    List.map
      (fun m ->
        {
          m_name = str "name" m;
          m_unit = str "unit" m;
          better = str "better" m;
          bound = (match Json.member "bound" m with Json.Num b -> b | _ -> 0.0);
        })
      (Json.to_list (Json.member key j))
  in
  ( List.map (str "name") (Json.to_list (Json.member "workloads" j)),
    metrics "end_to_end",
    metrics "per_layer" )

type verdict = {
  v_workload : string;
  v_metric : spec_metric;
  rule : string;  (** the bound applied, as printed *)
  median_a : float;
  median_b : float;
  iqr_a : float;
  iqr_b : float;
  verdict : string;
  flag : bool;  (** [served_frac] fell *)
}

(* One row per (workload, metric). When both files ran the same inputs
   (same seed, same size), an exact metric must not change at all.
   Otherwise a worsening is allowed up to the declared bound, as a share
   of A's median, or the metric's slack, whichever is larger. A metric
   is unresolved when either side's interquartile range is wider than
   that (unless every run of B beats every run of A). Any fall of
   [served_frac] is flagged as well. *)
let compare_results ~spec a b =
  let _, e2e, _ = read_spec spec in
  let same_inputs k = Json.member k a = Json.member k b in
  let same_inputs = same_inputs "seed" && same_inputs "quick" in
  let row wname wa wb m =
    let code =
      match List.find_opt (fun e -> e.e_name = m.m_name) end_to_end with
      | Some e -> e
      | None -> die "compare: %s declares %s, which the benchmark does not emit" spec m.m_name
    in
    let metric w = Json.member m.m_name (Json.member "end_to_end" w) in
    let get w k = Json.to_float (Json.member k (metric w)) in
    let values w = List.map Json.to_float (Json.to_list (Json.member "values" (metric w))) in
    let ma = get wa "median" and mb = get wb "median" in
    let ia = get wa "q3" -. get wa "q1" and ib = get wb "q3" -. get wb "q1" in
    let sign = if m.better = "lower" then 1.0 else -1.0 in
    let worse = sign *. (mb -. ma) in
    let all_better =
      List.for_all
        (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.0) (values wa))
        (values wb)
    in
    let rule, verdict =
      if same_inputs && code.exact then
        ( "exact",
          if worse > 0.0 then "regressed" else if worse < 0.0 then "improved" else "unchanged" )
      else
        let allowed = Float.max (m.bound *. Float.abs ma) code.slack in
        ( (if code.slack > 0.0 then Printf.sprintf "%.0f%%|%g" (100.0 *. m.bound) code.slack
           else Printf.sprintf "%.0f%%" (100.0 *. m.bound)),
          if Float.max ia ib > allowed && not all_better then "unresolved"
          else if worse > allowed then "regressed"
          else if worse < -.allowed then "improved"
          else "unchanged" )
    in
    {
      v_workload = wname;
      v_metric = m;
      rule;
      median_a = ma;
      median_b = mb;
      iqr_a = ia;
      iqr_b = ib;
      verdict;
      flag = m.m_name = "served_frac" && mb < ma;
    }
  in
  List.concat_map
    (fun (wname, wa) ->
      match Json.member wname (Json.member "workloads" b) with
      | Json.Null -> die "compare: workload %s is missing from the second file" wname
      | wb -> List.map (row wname wa wb) e2e)
    (Json.to_assoc (Json.member "workloads" a))

let bad_rows rows = List.filter (fun r -> r.verdict = "regressed" || r.flag) rows

let print_verdicts rows =
  Printf.printf "%-13s %-12s %14s %14s %9s %9s %9s  %s\n" "workload" "metric" "median A"
    "median B" "IQR A" "IQR B" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-13s %-12s %14.6g %14.6g %9.3g %9.3g %9s  %s%s\n" r.v_workload
        r.v_metric.m_name r.median_a r.median_b r.iqr_a r.iqr_b r.rule r.verdict
        (if r.flag then "  FLAG: served_frac fell" else ""))
    rows

(* {1 selftest: the dune runtest rule} *)

let metric_name_ok s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let selftest ~spec =
  let spec_workloads, spec_e2e, spec_layers = read_spec spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let code_workloads = List.map (fun w -> w.W.name) W.all in
  if List.sort compare spec_workloads <> List.sort compare code_workloads then
    problem "BENCHMARK.json workloads %s differ from the benchmark's %s"
      (String.concat "," spec_workloads) (workload_names ());
  (* Names, units and directions must agree between BENCHMARK.json and
     the code. *)
  let check_set what declared emitted =
    let show (n, u, b) = Printf.sprintf "%s (%s, %s)" n u b in
    let missing from m = not (List.mem m from) in
    List.iter
      (fun m -> if missing emitted m then problem "%s metric %s is not emitted" what (show m))
      declared;
    List.iter
      (fun m -> if missing declared m then problem "%s metric %s is not declared" what (show m))
      emitted
  in
  let declared ms = List.map (fun m -> (m.m_name, m.m_unit, m.better)) ms in
  check_set "end-to-end" (declared spec_e2e)
    (List.map (fun m -> (m.e_name, m.e_unit, m.e_better)) end_to_end);
  let catalogue = Layers.catalogue () in
  check_set "per-layer" (declared spec_layers)
    (List.map (fun m -> (m.Layers.name, m.Layers.unit, m.Layers.better)) catalogue);
  (* Every per-layer metric's targets name a declared workload and a
     declared end-to-end metric. *)
  List.iter
    (fun m ->
      List.iter
        (fun (w, e) ->
          if
            not
              (List.mem w spec_workloads && List.exists (fun s -> s.m_name = e) spec_e2e)
          then problem "per-layer %s moves %s on %s, which is not declared" m.Layers.name e w)
        m.Layers.moves)
    catalogue;
  let outcomes = run_all ~seed:1 ~quick:true ~trace_dir:"." in
  List.iter
    (fun (o, pl) ->
      let wname = o.workload.W.name in
      List.iter (fun f -> problem "%s: %s" wname f) (failures o);
      List.iter
        (fun m ->
          if not (List.mem_assoc m.m_name pl) then
            problem "%s: per-layer %s missing" wname m.m_name)
        spec_layers;
      List.iter
        (fun (k, v) ->
          if not (metric_name_ok k) then problem "%s: bad metric name %S" wname k;
          if Float.is_nan v then problem "%s: %s is NaN" wname k)
        pl)
    (all_per_layer outcomes);
  List.iter
    (fun m -> if not (metric_name_ok m.e_name) then problem "bad metric name %S" m.e_name)
    end_to_end;
  let path = "selftest-result.json" in
  write_file path (Json.to_string_compact (all_json ~seed:1 ~quick:true outcomes));
  let reread = Json.of_file path in
  if bad_rows (compare_results ~spec reread reread) <> [] then
    problem "compare of a result against itself reports a regression";
  match List.rev !problems with
  | [] -> print_endline "selftest: OK"
  | ps ->
      List.iter (fun p -> prerr_endline ("selftest: " ^ p)) ps;
      exit 1

(* {1 Command line} *)

let usage () =
  prerr_string
    "usage: rtas_bench.exe run --workload W --seed S --seconds T --trace 0|1 [--quick]\n\
    \       rtas_bench.exe all [--seed S] [--quick] [--out FILE]\n\
    \                          [--trace-dir DIR]\n\
    \       rtas_bench.exe compare A.json B.json [--spec BENCHMARK.json]\n\
    \       rtas_bench.exe selftest --spec BENCHMARK.json\n\
    \       rtas_bench.exe rep --workload W --seed S [--quick] [--trace] [--checks]\n\
    \                          [--no-elections] [--trace-file FILE]\n";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable quick : bool;
  mutable checks : bool;
  mutable elections : bool;
  mutable trace_file : string option;
  mutable trace_dir : string;
  mutable out : string option;
  mutable spec : string;
  mutable positional : string list;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 42;
      seconds = 20.0;
      trace = false;
      quick = false;
      checks = false;
      elections = true;
      trace_file = None;
      trace_dir = "_build/rtasbench";
      out = None;
      spec = "BENCHMARK.json";
      positional = [];
    }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ -> die "%s expects a whole number" flag
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        o.workload <- Some v;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_arg "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> o.seconds <- s
        | _ -> die "--seconds expects a positive number");
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--quick" :: rest ->
        o.quick <- true;
        go rest
    | "--checks" :: rest ->
        o.checks <- true;
        go rest
    | "--no-elections" :: rest ->
        o.elections <- false;
        go rest
    | "--trace-file" :: v :: rest ->
        o.trace_file <- Some v;
        go rest
    | "--trace-dir" :: v :: rest ->
        o.trace_dir <- v;
        go rest
    | "--out" :: v :: rest ->
        o.out <- Some v;
        go rest
    | "--spec" :: v :: rest ->
        o.spec <- v;
        go rest
    | ("-h" | "--help") :: _ -> usage ()
    | a :: _ when String.length a > 1 && a.[0] = '-' -> die "unknown option %s" a
    | a :: rest ->
        o.positional <- o.positional @ [ a ];
        go rest
  in
  go args;
  o

let workload_of o =
  match o.workload with
  | None -> die "--workload is required (one of %s)" (workload_names ())
  | Some name -> (
      match W.find name with
      | Some w -> w
      | None -> die "unknown workload %S (one of %s)" name (workload_names ()))

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> usage ()
  | _ :: cmd :: rest -> (
      let o = parse rest in
      match (cmd, o.positional) with
      | "rep", [] ->
          let report =
            Rep.run ~quick:o.quick ~trace:o.trace ~checks:o.checks ~elections:o.elections
              ?trace_file:o.trace_file (workload_of o) ~seed:o.seed
          in
          print_endline (Json.to_string_compact report)
      | "run", [] ->
          run_cmd ~w:(workload_of o) ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
            ~quick:o.quick ~trace_dir:o.trace_dir
      | "all", [] ->
          let outcomes = run_all ~seed:o.seed ~quick:o.quick ~trace_dir:o.trace_dir in
          report_all outcomes;
          Option.iter
            (fun path ->
              let json = all_json ~seed:o.seed ~quick:o.quick outcomes in
              write_file path (Json.to_string_compact json ^ "\n");
              Printf.printf "wrote %s\n" path)
            o.out;
          if List.exists (fun o -> failures o <> []) outcomes then exit 1
      | "compare", [ a; b ] ->
          let rows = compare_results ~spec:o.spec (Json.of_file a) (Json.of_file b) in
          print_verdicts rows;
          if bad_rows rows <> [] then exit 1
      | "selftest", [] -> selftest ~spec:o.spec
      | _ -> usage ())
