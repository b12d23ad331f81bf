(** Structured event tracer: stamps each {!Event.t} with simulated time
    and hands it to the binary {!Btrace} writer and/or a {!Flight} ring.

    The hot path does zero formatting and zero per-event syscalls: the
    writer appends fixed-width binary records to a preallocated segment
    buffer and the sink sees only large batches.  Text formats (JSONL,
    Chrome trace) are produced offline from the binary stream — see
    {!Btrace.export_jsonl} / {!Btrace.export_chrome} and the
    [netsim trace export] subcommand.

    A sink is just [string -> unit]; callers hand in [output_string oc]
    or [Buffer.add_string buf].  With no sink and no ring installed
    nothing is recorded; installers (see {!Probe}) only hook the
    simulation at all when a consumer exists, so the zero-sink run pays
    nothing. *)

type sink = string -> unit

(** What the flight ring stores: event time plus a plain-data copy of
    the event (live packets are recycled after the emitting hook). *)
type flight_record = float * Btrace.ev

type t

val create :
  ?btrace:sink -> ?flight:flight_record Flight.t -> Engine.Sim.t -> t

(** Declare a link / connection in the binary stream (and prime the
    tracer's plain-link cache).  Call before the corresponding events
    are emitted. *)
val declare_link : t -> Net.Link.t -> unit

(** Declare a connection with a conn-meta record carrying the flow's
    start time and size, which offline analytics ([netsim trace stats])
    recover. *)
val declare_conn_meta :
  t -> int -> start_time:float -> flow_size:int option -> unit

(** Stamp the event with [time] — the current simulated time, as the
    emitting hook received it — append its binary record, and copy it
    into the flight ring if one is armed. *)
val emit : t -> time:float -> Event.t -> unit

(** Events emitted so far. *)
val events_emitted : t -> int

val flight : t -> flight_record Flight.t option

(** Render one flight-ring record as its JSONL line (for postmortem
    dumps). *)
val render_flight : flight_record -> string

(** Flush the binary writer's segment buffer to the sink.  Idempotent;
    must run on every exit path (the {!Core.Runner} calls it on both
    success and exception unwinds). *)
val finish : t -> unit

(** [with_file_sink path f] opens [path] (binary mode), passes
    [output_string oc] to [f], and — via [Fun.protect] — flushes and
    closes the channel on every exit path, including exceptions.
    Callers must still {!finish} the tracer inside [f]'s protection if
    they want the last partial segment on disk; a crash between batches
    leaves a prefix from which {!Btrace.read} recovers every complete
    record. *)
val with_file_sink : string -> (sink -> 'a) -> 'a
