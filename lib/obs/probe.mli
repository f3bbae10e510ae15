(** Probe: the sink interface between instrumented code (the simulator,
    algorithm phase annotations) and observability consumers (the
    per-phase {!Collector}, the Perfetto {!Chrome_trace} exporter).

    One sink slot exists per domain. Instrumented code checks the slot
    and forwards typed events when a sink is installed; with no sink the
    probe points are a load and a branch — no allocation and no
    behaviour change, so a probed-off run is bit-identical to an
    uninstrumented one (tested in [test_obs.ml]'s "bit-identity" cases;
    the benchmark's [sim.*.ns_per_step] metrics in rtasbench/ time the
    probed-off path). Parallel Engine workers each install their own
    sink ([Engine.run_probed]); merging happens on snapshots after the
    join. *)

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
      (** One shared-memory step. [value] is the value read (reads) or
          written (writes). [rmr] says the step was a remote memory
          reference in the CC model; writes always are. [invalidated]
          is the number of {e other} processes whose cached copy this
          write invalidated (register contention); 0 for reads. *)
  on_flip : time:int -> pid:int -> bound:int -> outcome:int -> unit;
      (** A coin flip ([bound < 0] encodes the geometric draw with
          parameter [-bound], as in {!Sim.Op.Flip}). *)
  on_crash : time:int -> pid:int -> unit;
  on_finish : time:int -> pid:int -> result:int -> unit;
  on_span_enter : pid:int -> phase:string -> unit;
      (** A process entered an algorithm phase (e.g. ["ge_round"]).
          Spans nest per process; sinks track simulation time
          themselves from [on_step]. *)
  on_span_exit : pid:int -> phase:string -> unit;
}

val install : sink -> unit
(** Install in this domain's slot (replacing any previous sink). The
    scheduler caches the ambient sink at [Sched.create]/[Sched.reset],
    so install before building (or resetting) the system under
    observation. *)

val uninstall : unit -> unit
val current : unit -> sink option

val with_sink : sink -> (unit -> 'a) -> 'a
(** Scoped install; restores the previous sink (or none) afterwards,
    also on exceptions. *)

(** {1 Phase annotations}

    Algorithm code marks its phases with {!enter}/{!leave} (no closure,
    zero allocation when no sink is installed — use in hot paths) or the
    scoped {!span}. A process that crashes inside a span never reaches
    the matching {!leave}; collectors auto-close open spans on
    [on_crash]/[on_finish]. *)

val enter : pid:int -> string -> unit
val leave : pid:int -> string -> unit

val span : pid:int -> string -> (unit -> 'a) -> 'a
(** [span ~pid phase f] brackets [f] with enter/exit (exit also fires on
    exceptions). *)

val tee : sink -> sink -> sink
(** Fan every event out to both sinks, in argument order. *)
