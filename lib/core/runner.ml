(* Watchdog budgets, enforced from inside the event loop via
   [Sim.run_guarded].  [no_budget] (and no [stop] predicate) keeps the
   plain [Sim.run] hot path — zero supervision overhead for unbudgeted
   runs. *)
type budget = { max_events : int option; max_wall : float option }

let no_budget = { max_events = None; max_wall = None }

let budget ?max_events ?max_wall () = { max_events; max_wall }

type traces = {
  trunk_queues : (Trace.Queue_trace.t * Trace.Queue_trace.t) array;
  trunk_deps : (Trace.Dep_log.t * Trace.Dep_log.t) array;
  q1 : Trace.Queue_trace.t;
  q2 : Trace.Queue_trace.t;
  cwnds : Trace.Cwnd_trace.t array;
  drops : Trace.Drop_log.t;
  dep_fwd : Trace.Dep_log.t;
  dep_bwd : Trace.Dep_log.t;
}

type result = {
  scenario : Scenario.t;
  dumbbell : Net.Topology.dumbbell;
  conns : (Scenario.conn_spec * Tcp.Connection.t) array;
  trunk_utils : (float * float) array;
  util_fwd : float;
  util_bwd : float;
  t0 : float;
  t1 : float;
  delivered : int array;
  tally : Trace.Tally.summary;
  recorded : traces option;
  validation : Validate.Harness.t option;
  fault_plans : (Scenario.fault_site * Faults.Plan.t) list;
  obs : Obs.Probe.t option;
  stop : Engine.Sim.stop_reason;
  bundle : string option;
}

(* NETSIM_VALIDATE=1 (any value but "" / "0") forces validation on for
   every run, letting the examples and bins be audited without code
   changes. *)
let env_forces_validation () =
  match Sys.getenv_opt "NETSIM_VALIDATE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* [f] on both sides of a trunk pair, right-going first. *)
let both f (fwd, bwd) =
  let a = f fwd in
  (a, f bwd)

let connection_config (c : Net.Topology.chain) ~conn_id
    (spec : Scenario.conn_spec) =
  let lo, hi = spec.span in
  let src_host, dst_host =
    match spec.dir with
    | Scenario.Forward -> (c.hosts.(lo), c.hosts.(hi))
    | Scenario.Reverse -> (c.hosts.(hi), c.hosts.(lo))
  in
  Tcp.Config.make ~conn:conn_id ~src_host ~dst_host ~ack_size:spec.ack_size
    ~maxwnd:spec.maxwnd ~cc:spec.cc ~start_time:spec.start_time
    ~delayed_ack:spec.delayed_ack ~loss_detection:spec.loss_detection
    ~rto_params:spec.rto_params ~pacing:spec.pacing ~rtt_skew:spec.rtt_skew
    ~flow_size:spec.flow_size ()

let attach_traces (chain : Net.Topology.chain) conns ~now =
  (* Per-trunk recorders, each attached once; trunk 0 is the dumbbell
     bottleneck and also backs the [q1]/[q2]/[dep_*] fields. *)
  let trunk_queues =
    Array.map (both (fun l -> Trace.Queue_trace.attach l ~now)) chain.trunks
  in
  let cwnds =
    Array.map
      (fun (_spec, c) -> Trace.Cwnd_trace.attach (Tcp.Connection.sender c) ~now)
      conns
  in
  let drops = Trace.Drop_log.create () in
  List.iter (Trace.Drop_log.watch drops) (Net.Network.links chain.cnet);
  let trunk_deps = Array.map (both Trace.Dep_log.attach) chain.trunks in
  let q1, q2 = trunk_queues.(0) in
  let dep_fwd, dep_bwd = trunk_deps.(0) in
  { trunk_queues; trunk_deps; q1; q2; cwnds; drops; dep_fwd; dep_bwd }

let run ?(obs = Obs.Probe.disabled) ?(budget = no_budget) ?stop ?bundle_dir
    ?(traces = false) (scenario : Scenario.t) =
  let sim = Engine.Sim.create () in
  let params = Net.Topology.params ~gateway:scenario.gateway ~tau:scenario.tau
      ~buffer:scenario.buffer () in
  let chain =
    Net.Topology.chain sim params ~num_switches:scenario.num_switches
  in
  let dumbbell = Net.Topology.dumbbell_of_chain chain in
  let conns =
    Array.of_list
      (List.mapi
         (fun i spec ->
           let config = connection_config chain ~conn_id:(i + 1) spec in
           (spec, Tcp.Connection.create dumbbell.net config))
         scenario.conns)
  in
  (* Fault plans go on before the validation harness so every checker is
     born knowing the link has a fault hook point; hook order itself does
     not matter (the link announces faults before firing drop hooks). *)
  let fault_plans =
    List.map
      (fun (site, spec) ->
        let trunk, side = Scenario.fault_trunk site in
        let fwd, bwd = chain.trunks.(trunk) in
        let link =
          match side with Scenario.Forward -> fwd | Scenario.Reverse -> bwd
        in
        (site, Faults.Plan.install dumbbell.net link ~seed:scenario.fault_seed
                 spec))
      scenario.faults
  in
  let validation =
    if scenario.validate || env_forces_validation () then
      Some
        (Validate.Harness.attach dumbbell.net
           ~conns:(Array.to_list (Array.map snd conns)))
    else None
  in
  let obs =
    if Obs.Probe.is_enabled obs then begin
      let probe =
        Obs.Probe.attach obs ~net:dumbbell.net
          ~conns:
            (List.mapi
               (fun i (_spec, c) -> (i + 1, c))
               (Array.to_list conns))
      in
      (match validation with
       | Some harness ->
         Obs.Probe.arm_report probe (Validate.Harness.report harness)
       | None -> ());
      Some probe
    end
    else None
  in
  let tally =
    Trace.Tally.attach
      ~links:(Net.Network.links dumbbell.net)
      ~fwd:dumbbell.fwd ~bwd:dumbbell.bwd ~t0:scenario.warmup
      ~horizon:scenario.duration ~dt:scenario.sample_dt
  in
  let recorded =
    if traces then Some (attach_traces chain conns ~now:(Engine.Sim.now sim))
    else None
  in
  (* Metering starts at the end of warm-up. *)
  let meters = ref None in
  let delivered_at_warmup = Array.make (Array.length conns) 0 in
  ignore
    (Engine.Sim.at sim ~time:scenario.warmup (fun () ->
         let now = Engine.Sim.now sim in
         meters :=
           Some
             (Array.map
                (both (fun l -> Trace.Util_meter.start l ~now))
                chain.trunks);
         Array.iteri
           (fun i (_spec, c) ->
             delivered_at_warmup.(i) <- Tcp.Connection.delivered c)
           conns)
      : Engine.Sim.handle);
  (* Crash-bundle plumbing: best-effort, first write wins (an exception
     bundle is not overwritten by a later validation bundle). *)
  let bundle = ref None in
  let write_bundle ~kind ~reason ?exn_text ?backtrace ?validation () =
    match bundle_dir with
    | None -> ()
    | Some dir ->
      if !bundle = None then (
        match
          Crash.write ~dir ~scenario ~sim ~kind ~reason ?exn_text ?backtrace
            ?validation
            ?flight_text:
              (Option.bind obs (fun probe ->
                   Obs.Probe.flight_text probe
                     ~reason:("crash bundle: " ^ reason)))
            ?metrics_json:(Option.map Obs.Probe.metrics_json obs)
            ?max_events:budget.max_events ?max_wall:budget.max_wall ()
        with
        | Ok path -> bundle := Some path
        | Error msg ->
          Printf.eprintf "netsim: failed to write crash bundle for %s: %s\n%!"
            scenario.name msg)
  in
  let guarded =
    budget.max_events <> None || budget.max_wall <> None || Option.is_some stop
  in
  let stop_reason =
    try
      if guarded then
        Engine.Sim.run_guarded sim ~until:scenario.duration
          ?max_events:budget.max_events ?max_wall:budget.max_wall
          ~wall_clock:Unix.gettimeofday ?stop ()
      else begin
        Engine.Sim.run sim ~until:scenario.duration;
        Engine.Sim.Completed
      end
    with exn ->
      (* Salvage the postmortem before the exception unwinds the run. *)
      let bt = Printexc.get_raw_backtrace () in
      let exn_text = Printexc.to_string exn in
      (match obs with
       | Some probe ->
         Obs.Probe.dump_flight probe
           ~reason:(Printf.sprintf "Sim.run raised %s" exn_text)
       | None -> ());
      write_bundle ~kind:Crash.kind_exception
        ~reason:("Sim.run raised " ^ exn_text)
        ~exn_text
        ~backtrace:(Printexc.raw_backtrace_to_string bt)
        ();
      (match obs with Some probe -> Obs.Probe.finish probe | None -> ());
      Printexc.raise_with_backtrace exn bt
  in
  let stopped_early = stop_reason <> Engine.Sim.Completed in
  let now = Engine.Sim.now sim in
  let validation_summary = ref None in
  (match validation with
   | None -> ()
   | Some harness ->
     let report = Validate.Harness.finalize harness ~now in
     if not (Validate.Report.is_clean report) then begin
       validation_summary := Some (Validate.Report.summary report);
       (* An invariant violation means the simulation itself cannot be
          trusted; always say so loudly. *)
       prerr_endline
         (Printf.sprintf "netsim validation FAILED for scenario %s:"
            scenario.name);
       prerr_endline (Validate.Report.to_string report)
     end);
  (* Bundle on any bad ending: a watchdog stop (tagged with its reason,
     and with the validation verdict when there is one) or a validation
     violation on a completed run. *)
  if stopped_early then
    write_bundle
      ~kind:(Crash.kind_of_stop stop_reason)
      ~reason:(Engine.Sim.stop_reason_to_string stop_reason)
      ?validation:!validation_summary ()
  else (
    match !validation_summary with
    | Some summary ->
      write_bundle ~kind:Crash.kind_validation
        ~reason:("validation failed: " ^ summary)
        ~validation:summary ()
    | None -> ());
  (match !validation_summary with
   | Some summary when env_forces_validation () && not scenario.validate ->
     failwith
       (Printf.sprintf "validation failed for scenario %s: %s" scenario.name
          summary)
   | _ -> ());
  (match obs with Some probe -> Obs.Probe.finish probe | None -> ());
  let trunk_utils =
    match !meters with
    | Some meters ->
      Array.map (both (fun m -> Trace.Util_meter.utilization m ~now)) meters
    | None ->
      (* A run stopped before the warmup event has no measurement
         window; report zeros rather than failing the salvage. *)
      if stopped_early then Array.map (both (fun _ -> 0.)) chain.trunks
      else failwith "Runner: warmup event never fired"
  in
  let util_fwd, util_bwd = trunk_utils.(0) in
  let t1 =
    if stopped_early then Float.max scenario.warmup now else scenario.duration
  in
  let delivered =
    match !meters with
    | None -> Array.make (Array.length conns) 0
    | Some _ ->
      Array.mapi
        (fun i (_spec, c) ->
          Tcp.Connection.delivered c - delivered_at_warmup.(i))
        conns
  in
  {
    scenario;
    dumbbell;
    conns;
    trunk_utils;
    util_fwd;
    util_bwd;
    t0 = scenario.warmup;
    t1;
    delivered;
    tally = Trace.Tally.finish tally ~t1;
    recorded;
    validation;
    fault_plans;
    obs;
    stop = stop_reason;
    bundle = !bundle;
  }

let validation_report r =
  Option.map (fun h -> Validate.Harness.report h) r.validation

let traces r =
  match r.recorded with
  | Some traces -> traces
  | None -> invalid_arg "Runner.traces: the run was made without ~traces:true"

(* A run stopped before warm-up has an empty window ([t1 = t0]): nothing
   was measured, so rates are zero and phases unclassified. *)
let empty_window r = r.t1 <= r.t0

let goodput r i =
  if empty_window r then 0.
  else float_of_int r.delivered.(i) /. (r.t1 -. r.t0)

let goodput_dir r dir =
  let total = ref 0. in
  Array.iteri
    (fun i (spec, _c) ->
      if spec.Scenario.dir = dir then total := !total +. goodput r i)
    r.conns;
  !total

let drops_in_window r =
  Trace.Drop_log.in_window (traces r).drops ~t0:r.t0 ~t1:r.t1

let epochs ?(gap = Trace.Tally.epoch_gap) r =
  Analysis.Epochs.detect ~gap (drops_in_window r)

let unclassified = (Analysis.Sync.Unclassified, Float.nan)

let queue_phase r =
  if empty_window r then unclassified
  else
    let q1 = r.tally.q1_grid and q2 = r.tally.q2_grid in
    Analysis.Sync.phase_of_corr
      (Analysis.Stats.pearson_by (Trace.Tally.grid_length q1)
         (Trace.Tally.grid_get q1) (Trace.Tally.grid_get q2))

let cwnd_phase r i j =
  let cwnds = (traces r).cwnds in
  if empty_window r then unclassified
  else
    Analysis.Sync.classify
      (Trace.Cwnd_trace.cwnd cwnds.(i))
      (Trace.Cwnd_trace.cwnd cwnds.(j))
      ~t0:r.t0 ~t1:r.t1 ~dt:r.scenario.sample_dt

let effective_pipe r =
  if empty_window r then None
  else Trace.Tally.effective_pipe r.tally ~data_tx:(Scenario.data_tx r.scenario)
