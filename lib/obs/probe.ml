type setup = {
  metrics : bool;
  series_dt : float option;
  btrace : Tracer.sink option;
  flight : int option;
  flight_sink : Tracer.sink;
  flowstats : bool;
}

let setup ?(metrics = true) ?series_dt ?btrace ?flight ?flight_sink
    ?(flowstats = false) () =
  let flight_sink =
    match flight_sink with Some s -> s | None -> prerr_string
  in
  { metrics; series_dt; btrace; flight; flight_sink; flowstats }

let disabled = setup ~metrics:false ()

let is_enabled s =
  s.metrics || s.btrace <> None || s.flight <> None || s.flowstats

type t = {
  registry : Metrics.t option;
  recorder : Metrics.recorder option;
  tr : Tracer.t option;
  fs : Flowstats.t option;
  flight_sink : Tracer.sink;
  mutable flight_dumped : bool;
}

(* Buffer occupancies land in the single digits to low hundreds in every
   scenario the paper studies; a coarse log-ish grid is plenty to read
   the distribution's shape off a snapshot. *)
let qlen_bounds = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]

let emit tr time ev =
  match tr with Some tr -> Tracer.emit tr ~time ev | None -> ()

let fault_label : Net.Link.fault_event -> string = function
  | Net.Link.Fault_drop label -> label
  | Net.Link.Fault_duplicate -> "duplicate"
  | Net.Link.Fault_delay _ -> "delay"

(* A count metric reads a counter the model keeps anyway, at snapshot
   time; the per-event hooks below serve only the tracer, the per-flow
   registry and the queue-length histogram. *)
let count reg name f =
  Metrics.gauge_fn reg name (fun () -> float_of_int (f ()))

let wire_link ~sim ~registry ~tr link =
  (match tr with Some tr -> Tracer.declare_link tr link | None -> ());
  let pfx = "link." ^ Net.Link.name link in
  let qhist =
    match registry with
    | Some reg ->
      let gauge name f = Metrics.gauge_fn reg (pfx ^ name) f in
      let count name f = count reg (pfx ^ name) f in
      let now () = Engine.Sim.now sim in
      count ".qlen" (fun () -> Net.Link.queue_length link);
      gauge ".busy_time" (fun () -> Net.Link.busy_time link ~now:(now ()));
      let meter = Trace.Util_meter.start link ~now:(now ()) in
      gauge ".utilization" (fun () ->
          Trace.Util_meter.utilization meter ~now:(now ()));
      let c = Net.Link.counters link in
      count ".enq" (fun () -> c.enq_data + c.enq_ack);
      count ".drop" (fun () -> c.drop_data + c.drop_ack);
      count ".dep" (fun () -> c.dep_data + c.dep_ack);
      count ".dep_bytes" (fun () -> c.dep_bytes);
      count ".faults" (fun () -> c.faults);
      Some (Metrics.histogram reg (pfx ^ ".qlen_hist") ~bounds:qlen_bounds)
    | None -> None
  in
  if qhist <> None || tr <> None then
    Net.Link.on_enqueue link (fun time pkt qlen ->
        (match qhist with
         | Some h -> Metrics.observe h (float_of_int qlen)
         | None -> ());
        emit tr time (Event.Enqueue { link; pkt; qlen }));
  match tr with
  | None -> ()
  | Some tr ->
    Net.Link.on_drop link (fun time pkt ->
        Tracer.emit tr ~time (Event.Drop { link; pkt }));
    Net.Link.on_depart link (fun time pkt qlen ->
        Tracer.emit tr ~time (Event.Depart { link; pkt; qlen }));
    Net.Link.on_fault link (fun time fe pkt ->
        Tracer.emit tr ~time
          (Event.Fault { link; label = fault_label fe; pkt }))

let wire_conn ~registry ~tr ~fs (cid, conn) =
  let cfg = Tcp.Connection.config conn in
  (match tr with
   | Some tr ->
     Tracer.declare_conn_meta tr cid ~start_time:cfg.Tcp.Config.start_time
       ~flow_size:cfg.Tcp.Config.flow_size
   | None -> ());
  (match fs with
   | Some fs ->
     Flowstats.register fs ~conn:cid ~start_time:cfg.Tcp.Config.start_time
       ~flow_size:cfg.Tcp.Config.flow_size
   | None -> ());
  let s = Tcp.Connection.sender conn in
  let r = Tcp.Connection.receiver conn in
  let pfx = Printf.sprintf "conn.%d" cid in
  (match registry with
   | Some reg ->
     let gauge name f = Metrics.gauge_fn reg (pfx ^ name) f in
     let count name f = count reg (pfx ^ name) f in
     gauge ".cwnd" (fun () -> Tcp.Sender.cwnd s);
     gauge ".ssthresh" (fun () -> Tcp.Sender.ssthresh s);
     count ".retransmits" (fun () -> Tcp.Sender.retransmits s);
     count ".cwnd_cuts" (fun () ->
         Tcp.Sender.(timeouts s + fast_retransmits s));
     count ".timeouts" (fun () -> Tcp.Sender.timeouts s);
     count ".fast_rexmt" (fun () -> Tcp.Sender.fast_retransmits s);
     count ".sends" (fun () -> Tcp.Sender.(data_sent s + retransmits s));
     count ".acks" (fun () -> Tcp.Receiver.acks_sent r);
     count ".delayed_acks" (fun () -> Tcp.Receiver.delayed_acks_sent r);
     count ".dup_acks" (fun () -> Tcp.Receiver.dup_acks_sent r)
   | None -> ());
  if tr <> None || fs <> None then begin
    Tcp.Sender.on_cwnd s (fun time ~cwnd ~ssthresh ->
        (match fs with
         | Some fs -> Flowstats.record_cwnd fs ~conn:cid ~cwnd
         | None -> ());
        emit tr time (Event.Cwnd { conn = cid; cwnd; ssthresh }));
    Tcp.Sender.on_loss s (fun time reason ->
        (match fs with
         | Some fs -> Flowstats.record_loss fs ~conn:cid
         | None -> ());
        emit tr time
          (Event.Loss
             { conn = cid;
               reason =
                 (match reason with
                  | Tcp.Sender.Timeout -> "timeout"
                  | Tcp.Sender.Dup_ack -> "dup_ack");
             }));
    Tcp.Sender.on_send s (fun time pkt ->
        (match fs with
         | Some fs ->
           Flowstats.record_send fs ~time ~conn:cid ~seq:pkt.Net.Packet.seq
             ~retransmit:pkt.Net.Packet.retransmit
         | None -> ());
        emit tr time (Event.Send { conn = cid; pkt }))
  end;
  match tr with
  | None -> ()
  | Some tr ->
    Tcp.Receiver.on_ack_sent r (fun time ~ackno ~delayed ~dup ->
        Tracer.emit tr ~time (Event.Ack_tx { conn = cid; ackno; delayed; dup }))

let attach setup ~net ~conns =
  let sim = Net.Network.sim net in
  let tr =
    if setup.btrace <> None || setup.flight <> None then
      let flight =
        Option.map (fun capacity -> Flight.create ~capacity) setup.flight
      in
      Some (Tracer.create ?btrace:setup.btrace ?flight sim)
    else None
  in
  let fs = if setup.flowstats then Some (Flowstats.create ()) else None in
  let registry = if setup.metrics then Some (Metrics.create ()) else None in
  (match registry with
   | Some reg ->
     count reg "sim.events" (fun () -> Engine.Sim.events_run sim);
     count reg "sim.queue_depth" (fun () -> Engine.Sim.queue_length sim);
     count reg "net.injected" (fun () -> Net.Network.injected net);
     count reg "net.delivered" (fun () -> Net.Network.delivered net)
   | None -> ());
  (match tr with
   | Some tr ->
     Net.Network.on_inject net (fun time p ->
         Tracer.emit tr ~time (Event.Inject p))
   | None -> ());
  if tr <> None || fs <> None then
    Net.Network.on_deliver net (fun time p ->
        (match fs with
         | Some fs -> (
           (* Stamp with [Sim.now] like the tracer does, so the offline
              fold over the trace sees bit-identical times. *)
           match p.Net.Packet.kind with
           | Net.Packet.Data ->
             Flowstats.record_data_delivered fs ~conn:p.Net.Packet.conn
               ~bytes:p.Net.Packet.size
           | Net.Packet.Ack ->
             Flowstats.record_ack_delivered fs ~time:(Engine.Sim.now sim)
               ~conn:p.Net.Packet.conn ~ackno:p.Net.Packet.seq)
         | None -> ());
        emit tr time (Event.Deliver p));
  List.iter (wire_link ~sim ~registry ~tr) (Net.Network.links net);
  List.iter (wire_conn ~registry ~tr ~fs) conns;
  (* The recorder snapshots whatever is registered at creation time, so it
     must come after all of the wiring above. *)
  let recorder =
    match (registry, setup.series_dt) with
    | Some reg, Some dt -> Some (Metrics.record reg sim ~dt)
    | _ -> None
  in
  { registry; recorder; tr; fs; flight_sink = setup.flight_sink;
    flight_dumped = false }

let flight t = Option.bind t.tr Tracer.flight

let dump_flight t ~reason =
  match flight t with
  | Some f ->
    Flight.dump f ~reason ~render:Tracer.render_flight t.flight_sink
  | None -> ()

let flight_text t ~reason =
  match flight t with
  | Some f ->
    let buf = Buffer.create 4096 in
    Flight.dump f ~reason ~render:Tracer.render_flight
      (Buffer.add_string buf);
    Some (Buffer.contents buf)
  | None -> None

let arm_report t report =
  Validate.Report.on_violation report (fun v ->
      if not t.flight_dumped then begin
        t.flight_dumped <- true;
        dump_flight t
          ~reason:
            (Printf.sprintf "validate: %s (%s) at t=%.6f: %s"
               v.Validate.Report.checker v.Validate.Report.subject
               v.Validate.Report.time v.Validate.Report.detail)
      end)

let finish t = match t.tr with Some tr -> Tracer.finish tr | None -> ()
let flowstats t = t.fs

let final_metrics t =
  match t.registry with Some reg -> Metrics.snapshot reg | None -> []

let series t =
  match t.recorder with
  | Some r -> Metrics.recorder_series r
  | None -> []

let metrics_json t =
  match t.registry with Some reg -> Metrics.to_json reg | None -> "{}"

let events_traced t =
  match t.tr with Some tr -> Tracer.events_emitted tr | None -> 0
