(** Probe: wires the observability pillars ({!Metrics}, {!Tracer},
    {!Flight}, {!Flowstats}) into a live simulation.

    Metrics are pulled: every count metric is a gauge reading a counter
    the model already keeps ([Net.Link.counters], the sender's and
    receiver's tallies, [Net.Network.injected]/[delivered]) at snapshot
    time.  The counts are therefore cumulative from the model's
    creation, not from [attach]: attach once, after the network and
    connections exist but before [Sim.run], as [Core.Runner.run] does.

    A hook is installed only where a consumer needs every event — the
    tracer, the per-flow registry, or a link's queue-length histogram —
    so a metrics-only probe installs one [on_enqueue] hook per link and
    no network, sender or receiver hook, and a disabled pillar costs
    nothing: the model's hook lists stay empty and the zero-hook fast
    path is taken. *)

type setup

(** Build a configuration.

    - [metrics] (default [true]): register gauges and queue-length
      histograms for the simulator, the network, every link, and every
      connection.
    - [series_dt]: additionally sample every metric each [series_dt]
      simulated seconds into step series (see {!Metrics.record}).
    - [btrace]: binary trace sink (see {!Tracer.create}); convert
      offline with {!Btrace} or [netsim trace export].
    - [flight]: keep a flight-recorder ring of the last [n] events.
    - [flight_sink] (default stderr): where {!dump_flight} writes.
    - [flowstats] (default [false]): per-flow accounting registry
      ({!Flowstats}) fed from the model's hooks; zero cost when off. *)
val setup :
  ?metrics:bool ->
  ?series_dt:float ->
  ?btrace:Tracer.sink ->
  ?flight:int ->
  ?flight_sink:Tracer.sink ->
  ?flowstats:bool ->
  unit ->
  setup

(** A setup with everything off; attaching it installs no hooks. *)
val disabled : setup

(** Does this setup observe anything at all? *)
val is_enabled : setup -> bool

type t

(** Register metrics and install hooks per the setup.  [conns] pairs each connection id with
    its connection; ids are used in metric names and trace tracks. *)
val attach :
  setup -> net:Net.Network.t -> conns:(int * Tcp.Connection.t) list -> t

(** Dump the flight recorder on the first violation recorded in the
    report (subsequent violations do not re-dump). *)
val arm_report : t -> Validate.Report.t -> unit

(** Dump the flight ring to the configured sink, if a ring exists. *)
val dump_flight : t -> reason:string -> unit

(** Rendered flight-ring postmortem (banner + JSONL lines), or [None]
    without a ring — what crash bundles embed as [flight.txt]. *)
val flight_text : t -> reason:string -> string option

(** Flush buffered binary trace records to the sink.  Idempotent; runs
    on both success and exception paths of {!Core.Runner.run}. *)
val finish : t -> unit

val flowstats : t -> Flowstats.t option

(** Final scalar snapshot of every metric ([[]] without a registry). *)
val final_metrics : t -> (string * float) list

(** Recorded per-metric step series ([[]] without [series_dt]). *)
val series : t -> (string * Trace.Series.t) list

(** Deterministic JSON object of the final snapshot (["{}"] without a
    registry). *)
val metrics_json : t -> string

(** Events emitted to trace sinks (0 without a tracer). *)
val events_traced : t -> int
