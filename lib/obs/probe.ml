(* The sink interface of Probe, and the per-domain installation point.

   The scheduler and the algorithm annotations never know what consumes
   their events: they check the ambient sink (one domain-local slot) and
   call its callbacks when one is installed. With no sink installed
   every probe point is a load-and-branch — no allocation, no callback,
   no change to any execution — which is what keeps the arena hot path
   at full throughput with Probe compiled in (test_obs's "bit-identity"
   cases pin the unchanged execution; the benchmark's sim.*.ns_per_step
   metrics in rtasbench/ time the probed-off hot path).

   The slot is domain-local rather than global so parallel Engine
   workers can each collect into their own sink without synchronisation;
   Engine.run_probed installs a fresh sink per worker and merges the
   per-worker results after the join. *)

type sink = {
  on_step :
    time:int ->
    pid:int ->
    reg:int ->
    reg_name:string ->
    write:bool ->
    value:int ->
    rmr:bool ->
    invalidated:int ->
    unit;
  on_flip : time:int -> pid:int -> bound:int -> outcome:int -> unit;
  on_crash : time:int -> pid:int -> unit;
  on_finish : time:int -> pid:int -> result:int -> unit;
  on_span_enter : pid:int -> phase:string -> unit;
  on_span_exit : pid:int -> phase:string -> unit;
}

let slot : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install s = Domain.DLS.set slot (Some s)
let uninstall () = Domain.DLS.set slot None
let current () = Domain.DLS.get slot

let with_sink s f =
  let prev = current () in
  install s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f

(* {1 Phase annotation points for algorithm code} *)

let enter ~pid phase =
  match current () with None -> () | Some s -> s.on_span_enter ~pid ~phase

let leave ~pid phase =
  match current () with None -> () | Some s -> s.on_span_exit ~pid ~phase

let span ~pid phase f =
  match current () with
  | None -> f ()
  | Some s -> (
      s.on_span_enter ~pid ~phase;
      match f () with
      | v ->
          s.on_span_exit ~pid ~phase;
          v
      | exception e ->
          s.on_span_exit ~pid ~phase;
          raise e)

let tee a b =
  {
    on_step =
      (fun ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated ->
        a.on_step ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated;
        b.on_step ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated);
    on_flip =
      (fun ~time ~pid ~bound ~outcome ->
        a.on_flip ~time ~pid ~bound ~outcome;
        b.on_flip ~time ~pid ~bound ~outcome);
    on_crash =
      (fun ~time ~pid ->
        a.on_crash ~time ~pid;
        b.on_crash ~time ~pid);
    on_finish =
      (fun ~time ~pid ~result ->
        a.on_finish ~time ~pid ~result;
        b.on_finish ~time ~pid ~result);
    on_span_enter =
      (fun ~pid ~phase ->
        a.on_span_enter ~pid ~phase;
        b.on_span_enter ~pid ~phase);
    on_span_exit =
      (fun ~pid ~phase ->
        a.on_span_exit ~pid ~phase;
        b.on_span_exit ~pid ~phase);
  }
