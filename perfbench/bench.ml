(* perfbench/bench.exe — the repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   W is one of long-run, sweep-grids, observed-run, paper-suite (see
   README.md).  The invocation itself simulates nothing: it spawns this
   executable again in child modes, so every pass of a workload, every
   ladder rung and every heap measurement runs in a process of its own
   ([Gc.top_heap_words] is a per-process high-water mark, and a process
   that has spawned a domain may never fork again).  Children report
   back on stdout, one record per line:

     M <name> <value>                a metric
     T <attempted> <failed>          operations and failed operations
     C <0|1> <text>                  one correctness check (0 = failed)
     I <text>                        a line for the human-readable report
     S <id> <parent> <t0> <t1> <name> a span (parent 0 = none)

   The invocation prints a human-readable report and, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end rows; with --trace 1 they are
   the per-layer rows (ladder, spans, pool, GC, tracing overhead). *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Sizes.  None of them depends on the seed.                           *)
(* ------------------------------------------------------------------ *)

let long_horizon = 10_000.
let observed_horizon = 1_000.
let ladder_horizon = 2_000.
let heap_horizons = (1_000., 4_000.)
let storm_events = 1_000_000
let storm_timers = 8
let fault_loss = 0.01
let min_passes = 3
let ladder_rounds = 5
let digest_file = "perfbench/digests.txt"
let out_dir = "perfbench-out"

(* ------------------------------------------------------------------ *)
(* Child output                                                        *)
(* ------------------------------------------------------------------ *)

let metric name v = Printf.printf "M %s %.17g\n%!" name v
let info fmt = Printf.ksprintf (fun s -> Printf.printf "I %s\n%!" s) fmt

let report_checks (t : Perfstats.tally) checks =
  Perfstats.record t checks;
  List.iter
    (fun (c : Perfstats.check) ->
      Printf.printf "C %d %s: %s\n%!" (if c.ok then 1 else 0) c.what c.detail)
    checks

let report_tally (t : Perfstats.tally) =
  Printf.printf "T %d %d\n%!" t.attempted t.failed

(* Spans are recorded only in traced children; [span] is a plain call
   otherwise. *)
let recorder : Perfstats.recorder option ref = ref None

let span name f =
  match !recorder with
  | None -> f ()
  | Some r -> Perfstats.with_span r name f

(* Children hand their spans to the invocation, which writes them all
   out at the end. *)
let emit_spans () =
  match !recorder with
  | None -> ()
  | Some r ->
    List.iter
      (fun (sp : Perfstats.span) ->
        Printf.printf "S %d %d %.6f %.6f %s\n" sp.id
          (match sp.parent with Some p -> p | None -> 0)
          sp.t0 sp.t1 sp.name)
      (Perfstats.spans r)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Seed 0 is the reference input: every connection keeps the start time
   its recipe gives it, so outputs can be compared with the reference
   digests.  Any other seed shifts each connection's start by up to
   0.25 s, independently per connection. *)
let perturb ~seed ~salt (sc : Core.Scenario.t) =
  if seed = 0 then sc
  else begin
    let rng = Engine.Rng.create ~seed:(Hashtbl.hash (seed, salt)) in
    {
      sc with
      conns =
        List.map
          (fun (c : Core.Scenario.conn_spec) ->
            { c with start_time = c.start_time +. Engine.Rng.uniform rng ~lo:0. ~hi:0.25 })
          sc.conns;
    }
  end

(* The Figs 4-5 scenario: two-way 1+1 Tahoe, tau = 10 ms, B = 20. *)
let fig45 ~horizon =
  let base = Core.Experiments.scenario_fig45 Core.Experiments.Full in
  { base with name = "long-run"; duration = horizon }

let long_run_scenario ~seed = perturb ~seed ~salt:0 (fig45 ~horizon:long_horizon)

let with_faults ~fault_seed (sc : Core.Scenario.t) =
  {
    sc with
    faults = [ (Core.Scenario.Fwd_bottleneck, Faults.Spec.bernoulli fault_loss) ];
    fault_seed;
  }

let observed_scenario ~seed =
  let sc = fig45 ~horizon:observed_horizon in
  { (with_faults ~fault_seed:(seed + 1) sc) with name = "observed-run"; validate = true }

let sweep_points ~seed =
  List.filter (fun (g : Sweep.Grids.spec) -> g.name <> "smoke") Sweep.Grids.all
  |> List.concat_map (fun (g : Sweep.Grids.spec) -> g.points ~quick:false)
  |> List.mapi (fun i (p : Sweep.Driver.point) ->
         { p with scenario = perturb ~seed ~salt:(i + 1) p.scenario })

let jobs () = max 1 (Sweep_pool.available_cores ())

(* Reference digests: "<key> <hex>" per line. *)
let digests =
  lazy
    (if not (Sys.file_exists digest_file) then []
     else begin
       let ic = open_in digest_file in
       let rec go acc =
         match input_line ic with
         | line -> (
           match String.split_on_char ' ' (String.trim line) with
           | [ k; v ] -> go ((k, v) :: acc)
           | _ -> go acc)
         | exception End_of_file ->
           close_in ic;
           List.rev acc
       in
       go []
     end)

let digest_checks ~seed ~key output =
  if seed <> 0 then []
  else
    match List.assoc_opt key (Lazy.force digests) with
    | Some expected -> [ Perfstats.digest_check ~what:("digest " ^ key) ~expected output ]
    | None -> [ Perfstats.check ("digest " ^ key) false "no reference digest" ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One pass of a workload: the operations it performed, with their
   checks; the work items it completed (runs, sweep points or
   experiments); and the simulation events it ran. *)
type pass = { ops : Perfstats.check list list; points : int; events : float }

type workload = {
  name : string;
  prepare : seed:int -> unit -> pass;
      (** builds the inputs (the set-up), returning the measured pass *)
}

let sim_events (r : Core.Runner.result) =
  float_of_int (Engine.Sim.events_run (Net.Network.sim r.dumbbell.net))

let long_run_checks ~seed (r : Core.Runner.result) (s : Sweep.Summary.t) =
  let open Perfstats in
  let out_of_phase = Analysis.Sync.phase_to_string Analysis.Sync.Out_of_phase in
  [
    check "long-run completed" (r.stop = Engine.Sim.Completed)
      (Engine.Sim.stop_reason_to_string r.stop);
    check "long-run out-of-phase" (s.phase = out_of_phase)
      (Printf.sprintf "%s (corr %.3f)" s.phase s.phase_corr);
    check "long-run utilization in (0,1)"
      (s.util_fwd > 0. && s.util_fwd < 1. && s.util_bwd > 0. && s.util_bwd < 1.)
      (Printf.sprintf "fwd %.4f bwd %.4f" s.util_fwd s.util_bwd);
    check "long-run every connection delivers"
      (Array.for_all (fun d -> d > 0) r.delivered)
      (String.concat " " (Array.to_list (Array.map string_of_int r.delivered)));
  ]
  @ digest_checks ~seed ~key:"long-run" (Sweep.Summary.to_json s)

let long_run =
  {
    name = "long-run";
    prepare =
      (fun ~seed ->
        let sc = long_run_scenario ~seed in
        fun () ->
          let r = span "core.Runner.run" (fun () -> Core.Runner.run sc) in
          let s =
            span "sweep.Summary.of_result" (fun () ->
                Sweep.Summary.of_result ~id:"long-run" r)
          in
          { ops = [ long_run_checks ~seed r s ]; points = 1; events = sim_events r });
  }

let summary_events (s : Sweep.Summary.t) =
  match List.assoc_opt "sim.events" s.metrics with Some e -> e | None -> 0.

let point_checks ~seed i (p : Sweep.Driver.point) (s : Sweep.Summary.t option) =
  match s with
  | None -> [ Perfstats.check ("sweep point " ^ p.id) false "missing or failed" ]
  | Some s ->
    digest_checks ~seed ~key:(Printf.sprintf "sweep.%d.%s" i p.id) (Sweep.Summary.to_json s)

let outcome_pass ~seed points (o : Sweep.Summary.t Sweep_pool.outcome) =
  List.iter
    (fun f -> info "worker failure: %s" (Sweep_pool.worker_failure_to_string f))
    o.worker_failures;
  let ops = List.mapi (fun i p -> point_checks ~seed i p o.results.(i)) points in
  let events =
    Array.fold_left
      (fun acc s -> match s with Some s -> acc +. summary_events s | None -> acc)
      0. o.results
  in
  { ops; points = List.length points; events }

(* The traced sweep times each point inside the pool: the task returns
   its own span boundaries, which cross the domain or process boundary
   as plain data with the summary. *)
let timed_point (p : Sweep.Driver.point) =
  let t0 = now () in
  let r = Core.Runner.run ~obs:(Obs.Probe.setup ()) p.scenario in
  let t1 = now () in
  let s = Sweep.Summary.of_result ~id:p.id ~params:p.params r in
  (s, t0, t1, now ())

type point_times = { point_s : float list; summary_s : float list; busy : float }

let traced_sweep r points =
  let jobs = jobs () in
  let t0 = now () in
  let o = Sweep_pool.map_collect ~jobs timed_point points in
  let t1 = now () in
  let pool = Perfstats.add r ~name:"pool.map_collect" ~t0 ~t1 () in
  let times =
    Array.fold_left
      (fun acc res ->
        match res with
        | None -> acc
        | Some (_, a, b, c) ->
          let pt = Perfstats.add r ~name:"pool.point" ~parent:pool ~t0:a ~t1:c () in
          ignore (Perfstats.add r ~name:"core.Runner.run" ~parent:pt ~t0:a ~t1:b () : int);
          ignore (Perfstats.add r ~name:"sweep.Summary.of_result" ~parent:pt ~t0:b ~t1:c () : int);
          { point_s = (c -. a) :: acc.point_s; summary_s = (c -. b) :: acc.summary_s;
            busy = acc.busy +. (c -. a) })
      { point_s = []; summary_s = []; busy = 0. }
      o.results
  in
  let o' =
    { o with Sweep_pool.results = Array.map (Option.map (fun (s, _, _, _) -> s)) o.results }
  in
  (o', times, float_of_int jobs *. (t1 -. t0))

let sweep_grids =
  {
    name = "sweep-grids";
    prepare =
      (fun ~seed ->
        let points = sweep_points ~seed in
        let jobs = jobs () in
        info "sweep-grids: %d points, jobs %d, backend %s" (List.length points) jobs
          (Sweep_pool.backend_to_string (Sweep_pool.default_backend ()));
        fun () ->
          match !recorder with
          | None -> outcome_pass ~seed points (Sweep.Driver.run_collect ~jobs points)
          | Some r ->
            let o, _, _ = traced_sweep r points in
            outcome_pass ~seed points o);
  }

let observed_checks (r : Core.Runner.result) ~online ~trace =
  let open Perfstats in
  let validation =
    match Core.Runner.validation_report r with
    | Some rep -> check "observed-run validation clean" (Validate.Report.is_clean rep)
                    (Validate.Report.summary rep)
    | None -> check "observed-run validation clean" false "validation did not run"
  in
  let offline =
    span "obs.Btrace.read" (fun () -> Obs.Btrace.read trace) |> function
    | Error e -> Error e
    | Ok f ->
      let fs = Obs.Flowstats.create () in
      span "obs.Flowstats.feed" (fun () -> List.iter (Obs.Flowstats.feed fs) f.items);
      Ok (Obs.Flowstats.to_json fs)
  in
  let audit = span "obs.Btrace.validate" (fun () -> Obs.Btrace.validate trace) in
  [
    check "observed-run completed" (r.stop = Engine.Sim.Completed)
      (Engine.Sim.stop_reason_to_string r.stop);
    validation;
    (match offline with
     | Ok off -> check "online flowstats = offline flowstats" (off = online)
                   (Printf.sprintf "%d bytes" (String.length online))
     | Error e -> check "online flowstats = offline flowstats" false e);
    (match audit with
     | Ok a ->
       check "btrace validates, no torn tail"
         (a.audit_errors = [] && a.audit_torn = None)
         (Printf.sprintf "%d events, %d errors%s" a.audit_events
            (List.length a.audit_errors)
            (match a.audit_torn with Some t -> ", torn: " ^ t | None -> ""))
     | Error e -> check "btrace validates, no torn tail" false e);
  ]

let observed_run =
  {
    name = "observed-run";
    prepare =
      (fun ~seed ->
        let sc = observed_scenario ~seed in
        let buf = Buffer.create (1 lsl 24) in
        let setup =
          Obs.Probe.setup ~metrics:true ~series_dt:1.0 ~btrace:(Buffer.add_string buf)
            ~flowstats:true ()
        in
        fun () ->
          let r = span "core.Runner.run" (fun () -> Core.Runner.run ~obs:setup sc) in
          let online =
            match Option.bind r.obs Obs.Probe.flowstats with
            | Some fs -> Obs.Flowstats.to_json fs
            | None -> ""
          in
          let trace = Buffer.contents buf in
          { ops = [ observed_checks r ~online ~trace ]; points = 1; events = sim_events r });
  }

let experiment_checks name (o : Core.Report.outcome) =
  List.filter_map
    (fun (c : Core.Report.check) ->
      match c.pass with
      | None -> None
      | Some ok ->
        Some [ Perfstats.check (name ^ ": " ^ c.metric) ok c.measured ])
    o.checks

let paper_suite =
  {
    name = "paper-suite";
    prepare =
      (fun ~seed ->
        info "paper-suite is a fixed recipe: seed %d ignored" seed;
        let registry = Core.Experiments.registry in
        fun () ->
          let ops =
            List.concat_map
              (fun (name, (f : ?speed:Core.Experiments.speed -> unit -> Core.Report.outcome)) ->
                let o =
                  span ("core.Experiments." ^ name) (fun () ->
                      f ~speed:Core.Experiments.Full ())
                in
                experiment_checks name o)
              registry
          in
          (* No simulator is reachable from outside an experiment, so the
             suite's rate counts verified paper checks. *)
          { ops; points = List.length registry; events = float_of_int (List.length ops) });
  }

let workloads = [ long_run; sweep_grids; observed_run; paper_suite ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Child: set up, run one measured pass, report.  Each pass runs in a
   fresh process, so its heap high-water mark and its set-up time are
   its own. *)
let child_pass w ~seed ~t0 ~traced =
  if traced then recorder := Some (Perfstats.recorder ~clock:now ());
  let pass = w.prepare ~seed in
  metric "setup_s" (now () -. t0);
  let gc0 = Gc.quick_stat () in
  let a = now () in
  let p = span ("workload." ^ w.name) pass in
  let wall = now () -. a in
  let gc1 = Gc.quick_stat () in
  metric "wall_s" wall;
  metric "events" p.events;
  metric "points" (float_of_int p.points);
  metric "peak_heap_mb"
    (float_of_int (top_heap_words ()) *. float_of_int (Sys.word_size / 8) /. 1e6);
  metric "gc.minor_words" (gc1.minor_words -. gc0.minor_words);
  metric "gc.major_collections"
    (float_of_int (gc1.major_collections - gc0.major_collections));
  let tally = Perfstats.tally () in
  List.iter (report_checks tally) p.ops;
  report_tally tally;
  emit_spans ()

(* ------------------------------------------------------------------ *)
(* Layer ladder                                                        *)
(* ------------------------------------------------------------------ *)

(* Each rung rebuilds the ladder scenario from public constructors with
   one more layer switched on.  A rung child runs it once; the invocation
   runs the whole ladder [ladder_rounds] times, rung after rung, so that
   every rung sees the same drift in the machine's speed.  Words/event
   is exact (the inputs are fixed) and must repeat in every round; times
   are taken from the fastest round, the one least disturbed by other
   load, so that subtracting two rungs leaves the layer's cost rather
   than the noise. *)

let ladder_scenario () = fig45 ~horizon:ladder_horizon

(* Mirrors the connection wiring of [Core.Runner.run]. *)
let connection_config (d : Net.Topology.dumbbell) ~conn_id
    (spec : Core.Scenario.conn_spec) =
  let src_host, dst_host =
    match spec.dir with
    | Core.Scenario.Forward -> (d.host1, d.host2)
    | Core.Scenario.Reverse -> (d.host2, d.host1)
  in
  Tcp.Config.make ~conn:conn_id ~src_host ~dst_host ~ack_size:spec.ack_size
    ~maxwnd:spec.maxwnd ~cc:spec.cc ~start_time:spec.start_time
    ~delayed_ack:spec.delayed_ack ~loss_detection:spec.loss_detection
    ~rto_params:spec.rto_params ~pacing:spec.pacing ~rtt_skew:spec.rtt_skew
    ~flow_size:spec.flow_size ()

let build sim (sc : Core.Scenario.t) specs =
  let params =
    Net.Topology.params ~gateway:sc.gateway ~tau:sc.tau ~buffer:sc.buffer ()
  in
  let d = Net.Topology.dumbbell sim params in
  let conns =
    List.mapi
      (fun i spec -> Tcp.Connection.create d.net (connection_config d ~conn_id:(i + 1) spec))
      specs
  in
  (d, conns)

(* Run [f] (which returns its event count) once, measuring it. *)
let measure_rung f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let events = f () in
  let seconds = now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  { Perfstats.events; seconds; minor_words }

(* Rung 1: a storm of self-re-arming timers through the bare engine,
   with about as many pending timers as the dumbbell keeps. *)
let storm () =
  let sim = Engine.Sim.create () in
  let delays = Array.init 1024 (fun i -> 0.001 +. (float_of_int ((i * 7919) mod 1024) *. 1e-5)) in
  let k = ref 0 in
  for i = 0 to storm_timers - 1 do
    let tm = Engine.Sim.Timer.create sim ignore in
    Engine.Sim.Timer.set_action tm (fun () ->
        incr k;
        if !k < storm_events then
          Engine.Sim.Timer.set tm ~delay:delays.(!k land 1023));
    Engine.Sim.Timer.set tm ~delay:(float_of_int i *. 1e-4)
  done;
  Engine.Sim.run sim ~until:Float.max_float;
  Engine.Sim.events_run sim

let run_built specs =
  let sc = ladder_scenario () in
  let sim = Engine.Sim.create () in
  let _ = build sim sc specs in
  Engine.Sim.run sim ~until:sc.duration;
  Engine.Sim.events_run sim

let fixed_specs () =
  [ Core.Scenario.fixed_conn ~window:8 Core.Scenario.Forward;
    Core.Scenario.fixed_conn ~window:8 ~start_time:1.0 Core.Scenario.Reverse ]

(* The rungs above the bare model go through [Core.Runner.run]; the last
   result and the btrace rung's trace stay for the counts read after. *)
let last_result = ref None
let trace_buf = lazy (Buffer.create (1 lsl 22))

let runner_rung ?(scenario = ladder_scenario) ?(obs = fun () -> Obs.Probe.disabled) () () =
  let r = Core.Runner.run ~obs:(obs ()) (scenario ()) in
  last_result := Some r;
  int_of_float (sim_events r)

let rungs =
  [
    ("engine", storm);
    ("fixed", fun () -> run_built (fixed_specs ()));
    ("tahoe", fun () -> run_built (ladder_scenario ()).conns);
    ("runner", runner_rung ());
    ("metrics", runner_rung ~obs:(fun () -> Obs.Probe.setup ~metrics:true ()) ());
    ("series", runner_rung ~obs:(fun () -> Obs.Probe.setup ~metrics:true ~series_dt:1.0 ()) ());
    ("flowstats", runner_rung ~obs:(fun () -> Obs.Probe.setup ~metrics:false ~flowstats:true ()) ());
    ( "btrace",
      runner_rung
        ~obs:(fun () ->
          Obs.Probe.setup ~metrics:false ~btrace:(Buffer.add_string (Lazy.force trace_buf)) ())
        () );
    ("validate", runner_rung ~scenario:(fun () -> { (ladder_scenario ()) with validate = true }) ());
    ("faults", runner_rung ~scenario:(fun () -> with_faults ~fault_seed:1 (ladder_scenario ())) ());
  ]

let time f =
  let t0 = now () in
  f ();
  now () -. t0

(* Per-layer timings keep the fastest of [reps] repetitions. *)
let fastest reps f = List.fold_left Float.min infinity (List.init reps (fun _ -> time f))

let child_rung name =
  let f =
    match List.assoc_opt name rungs with
    | Some f -> f
    | None -> Printf.eprintf "perfbench: unknown rung %s\n" name; exit 2
  in
  let first = measure_rung f in
  metric ("rung." ^ name ^ ".events") (float_of_int first.events);
  metric ("rung." ^ name ^ ".seconds") first.seconds;
  metric ("rung." ^ name ^ ".minor_words") first.minor_words;
  metric ("rung." ^ name ^ ".top_heap_words") (float_of_int (top_heap_words ()));
  match (name, !last_result) with
  | "btrace", _ ->
    let trace = Buffer.contents (Lazy.force trace_buf) in
    let items =
      match Obs.Btrace.read trace with Ok f -> f.items | Error e -> failwith e
    in
    let records = float_of_int (List.length items) in
    metric "obs.btrace.bytes_per_event" (float_of_int (String.length trace) /. float_of_int first.events);
    metric "obs.btrace.read_ns_per_record"
      (time (fun () -> ignore (Obs.Btrace.read trace)) *. 1e9 /. records);
    metric "obs.flowstats.feed_ns_per_record"
      (time (fun () ->
           let fs = Obs.Flowstats.create () in
           List.iter (Obs.Flowstats.feed fs) items)
       *. 1e9 /. records)
  | "runner", Some r ->
    let sum f = Array.fold_left (fun acc (_, c) -> acc + f c) 0 r.conns in
    metric "tcp.retransmits" (float_of_int (sum (fun c -> Tcp.Sender.retransmits (Tcp.Connection.sender c))));
    metric "tcp.useful_ratio"
      (float_of_int (sum Tcp.Connection.delivered)
       /. float_of_int (sum (fun c -> Tcp.Sender.data_sent (Tcp.Connection.sender c))));
    let sc = ladder_scenario () in
    let build_s =
      fastest 3 (fun () ->
          for _ = 1 to 100 do ignore (build (Engine.Sim.create ()) sc sc.conns) done)
    in
    metric "core.build_ms" (build_s *. 1e3 /. 100.)
  | "faults", Some r ->
    metric "faults.injected"
      (float_of_int
         (List.fold_left
            (fun acc (_, p) ->
              acc + Faults.Plan.fault_drops p + Faults.Plan.duplicates p + Faults.Plan.delayed p)
            0 r.fault_plans))
  | _ -> ()

let child_heap horizon =
  ignore (Core.Runner.run (fig45 ~horizon));
  metric "top_heap_words" (float_of_int (top_heap_words ()))

(* Pool dispatch cost on trivial tasks. *)
let child_dispatch () =
  let jobs = jobs () in
  let n = 20_000 in
  let tasks = List.init n Fun.id in
  let s = fastest 5 (fun () -> ignore (Sweep_pool.map_collect ~jobs succ tasks)) in
  metric "pool.dispatch_us_per_point" (s *. 1e6 /. float_of_int n)

(* One traced sweep pass (reference inputs) for the pool and summary rows. *)
let child_sweep_layer () =
  let r = Perfstats.recorder ~clock:now () in
  recorder := Some r;
  let points = sweep_points ~seed:0 in
  let o, times, capacity = traced_sweep r points in
  let tally = Perfstats.tally () in
  List.iter (report_checks tally) (outcome_pass ~seed:0 points o).ops;
  let ms xs p = Perfstats.percentile xs p *. 1e3 in
  (match Perfstats.tail_percentile (List.length times.point_s) with
   | Some p -> info "pool: %d points, p%g is the highest percentile with >= 10 beyond"
                 (List.length times.point_s) p
   | None -> info "pool: %d points, too few for a tail percentile" (List.length times.point_s));
  metric "pool.point_ms_p50" (ms times.point_s 50.);
  metric "pool.point_ms_p90" (ms times.point_s 90.);
  metric "pool.point_ms_max" (ms times.point_s 100.);
  metric "pool.busy_share" (times.busy /. capacity);
  metric "sweep.summary_ms_per_point"
    (List.fold_left ( +. ) 0. times.summary_s *. 1e3
     /. float_of_int (List.length times.summary_s));
  emit_spans ();
  report_tally tally

(* One pass of the paper suite, timing each experiment. *)
let child_suite_layer () =
  let tally = Perfstats.tally () in
  List.iter
    (fun (name, (f : ?speed:Core.Experiments.speed -> unit -> Core.Report.outcome)) ->
      let t0 = now () in
      let o = f ~speed:Core.Experiments.Full () in
      metric ("core.experiment_s." ^ name) (now () -. t0);
      List.iter (report_checks tally) (experiment_checks name o))
    Core.Experiments.registry;
  report_tally tally

(* Print the reference digests (seed 0) in the format of digests.txt. *)
let child_digests () =
  let s = Sweep.Summary.of_result ~id:"long-run" (Core.Runner.run (long_run_scenario ~seed:0)) in
  Printf.printf "long-run %s\n" (Perfstats.digest (Sweep.Summary.to_json s));
  let points = sweep_points ~seed:0 in
  let summaries = Sweep.Driver.run ~jobs:(jobs ()) points in
  List.iteri
    (fun i ((p : Sweep.Driver.point), s) ->
      Printf.printf "sweep.%d.%s %s\n" i p.id (Perfstats.digest (Sweep.Summary.to_json s)))
    (List.combine points summaries)

(* ------------------------------------------------------------------ *)
(* The invocation: spawn children, combine, print                      *)
(* ------------------------------------------------------------------ *)

type child_out = {
  metrics : (string * float) list;
  spans : Perfstats.span list;
  attempted : int;
  failed : int;
  ok : bool;  (** exited 0 *)
}

(* Every child is one run for the spans; span ids are made unique
   across children by offsetting them with the run number. *)
let runs = ref 0
let seen_info = Hashtbl.create 16

let parse_span ~run body =
  Scanf.sscanf body "%d %d %f %f %s" (fun id parent t0 t1 name ->
      let off = run * 1_000_000 in
      { Perfstats.id = off + id; name; run; t0; t1;
        parent = (if parent = 0 then None else Some (off + parent)) })

let spawn args =
  incr runs;
  let run = !runs in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let metrics = ref [] and spans = ref [] and attempted = ref 0 and failed = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let len = String.length line in
       if len >= 2 then
         let body = String.sub line 2 (len - 2) in
         match line.[0] with
         | 'M' -> Scanf.sscanf body "%s %f" (fun k v -> metrics := (k, v) :: !metrics)
         | 'S' -> spans := parse_span ~run body :: !spans
         | 'T' -> Scanf.sscanf body "%d %d" (fun a f ->
             attempted := !attempted + a; failed := !failed + f)
         | 'C' when len > 4 && body.[0] = '0' ->
           Printf.printf "FAILED %s\n%!" (String.sub body 2 (len - 4))
         | 'I' when not (Hashtbl.mem seen_info body) ->
           Hashtbl.replace seen_info body ();
           print_endline body
         | _ -> ()
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  if not ok then Printf.printf "FAILED child %s\n%!" (String.concat " " args);
  { metrics = List.rev !metrics; spans = List.rev !spans; attempted = !attempted;
    failed = !failed; ok }

let get (c : child_out) name =
  match List.assoc_opt name c.metrics with
  | Some v -> v
  | None -> failwith ("perfbench: child reported no " ^ name)

(* Passes of workload [w], one process each, until [seconds] have gone
   by (and at least [min_passes] of each mode).  [modes] alternate:
   untraced and traced passes interleave, so both see the same drift in
   the machine's speed.  Returns the children of each mode. *)
let passes (w : workload) ~seed ~seconds ~modes =
  let deadline = now () +. seconds in
  let nmodes = List.length modes in
  let rec go acc n =
    if n >= min_passes * nmodes && n mod nmodes = 0 && now () >= deadline then List.rev acc
    else
      let traced = List.nth modes (n mod nmodes) in
      let c =
        spawn
          [ "--child"; "pass"; "--workload"; w.name; "--seed"; string_of_int seed;
            "--trace"; (if traced then "1" else "0");
            "--t0"; Printf.sprintf "%.6f" (now ()) ]
      in
      go ((traced, c) :: acc) (n + 1)
  in
  let all = go [] 0 in
  List.map
    (fun traced ->
      let cs = List.filter_map (fun (t, c) -> if t = traced then Some c else None) all in
      Printf.printf "%s%s: %d passes, wall_s per pass: %s\n" w.name
        (if traced then " (traced)" else "") (List.length cs)
        (String.concat " " (List.map (fun c -> Printf.sprintf "%.3f" (get c "wall_s")) cs));
      cs)
    modes

let median_of cs name = Perfstats.median (List.map (fun c -> get c name) cs)
let sum_of cs name = List.fold_left (fun acc c -> acc +. get c name) 0. cs
let mean_wall cs = sum_of cs "wall_s" /. float_of_int (List.length cs)

type row = { name : string; value : float; unit_ : string }

let print_result ~correct ~attempted ~failed rows =
  Printf.printf "\n%-36s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun r -> Printf.printf "%-36s %18.6g  %s\n" r.name r.value r.unit_) rows;
  Printf.printf "fail_ratio %.6g (%d failed of %d attempted)\n"
    (Perfstats.fail_ratio { attempted; failed }) failed attempted;
  let metrics =
    List.map
      (fun r -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" r.name r.value r.unit_)
      rows
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

(* The rates are the measured section's work over its wall time, and
   wall_s is that wall time per pass.  The machine's speed drifts between
   states lasting tens of seconds; over ten runs, these aggregates spread
   less than the median pass does.  setup_s and peak_heap_mb are
   per-process values, so they are medians. *)
let end_to_end (w : workload) ~seed ~seconds =
  let cs = List.concat (passes w ~seed ~seconds ~modes:[ false ]) in
  let wall = sum_of cs "wall_s" in
  Printf.printf "wall_s per pass: median %.4f, mean %.4f\n" (median_of cs "wall_s") (mean_wall cs);
  ( cs,
    [ { name = "setup_s"; value = median_of cs "setup_s"; unit_ = "s" };
      { name = "wall_s"; value = mean_wall cs; unit_ = "s" };
      { name = "events_per_s"; value = sum_of cs "events" /. wall; unit_ = "1/s" };
      { name = "points_per_s"; value = sum_of cs "points" /. wall; unit_ = "1/s" };
      { name = "peak_heap_mb"; value = median_of cs "peak_heap_mb"; unit_ = "MB" } ] )

(* One rung's results over the ladder rounds: times keep the fastest
   round; everything else must repeat exactly. *)
let merge_rounds (cs : child_out list) =
  let first = List.hd cs in
  let is_time name =
    Filename.check_suffix name ".seconds"
    || List.mem name
         [ "obs.btrace.read_ns_per_record"; "obs.flowstats.feed_ns_per_record"; "core.build_ms" ]
  in
  let merge (name, _) =
    let vs = List.map (fun c -> get c name) cs in
    if is_time name then (name, List.fold_left Float.min infinity vs)
    else begin
      if List.exists (fun v -> v <> List.hd vs) vs then
        Printf.printf "ladder: %s differs between rounds\n" name;
      (name, Perfstats.median vs)
    end
  in
  { first with metrics = List.map merge first.metrics }

let per_layer (w : workload) ~seed ~seconds =
  let plain, traced =
    match passes w ~seed ~seconds ~modes:[ false; true ] with
    | [ plain; traced ] -> (plain, traced)
    | _ -> assert false
  in
  let rounds =
    List.init ladder_rounds (fun _ ->
        List.map (fun (name, _) -> spawn [ "--child"; "rung"; "--rung"; name ]) rungs)
  in
  let rungs =
    List.mapi (fun i (name, _) -> (name, merge_rounds (List.map (fun rd -> List.nth rd i) rounds)))
      rungs
  in
  let r name =
    let c = List.assoc name rungs in
    { Perfstats.events = int_of_float (get c ("rung." ^ name ^ ".events"));
      seconds = get c ("rung." ^ name ^ ".seconds");
      minor_words = get c ("rung." ^ name ^ ".minor_words") }
  in
  let h0, h1 = heap_horizons in
  let heap h = spawn [ "--child"; "heap"; "--horizon"; Printf.sprintf "%g" h ] in
  let heap0 = heap h0 and heap1 = heap h1 in
  let sweep = spawn [ "--child"; "sweep-layer" ] in
  let suite = spawn [ "--child"; "suite-layer" ] in
  let dispatch = spawn [ "--child"; "dispatch" ] in
  let children =
    plain @ traced @ [ heap0; heap1; sweep; suite; dispatch ] @ List.concat rounds
  in
  let pair prefix ~upper ~lower =
    let ns, words = Perfstats.marginal ~upper:(r upper) ~lower:(r lower) in
    [ { name = prefix ^ ".ns_per_event"; value = ns; unit_ = "ns" };
      { name = prefix ^ ".words_per_event"; value = words; unit_ = "words" } ]
  in
  let engine = r "engine" in
  let copy c name unit_ = { name; value = get c name; unit_ } in
  let runner = List.assoc "runner" rungs in
  let btrace = List.assoc "btrace" rungs in
  let rows =
    [ { name = "engine.ns_per_event"; value = Perfstats.ns_per_event engine; unit_ = "ns" };
      { name = "engine.words_per_event"; value = Perfstats.words_per_event engine;
        unit_ = "words" } ]
    @ pair "net" ~upper:"fixed" ~lower:"engine"
    @ pair "tcp" ~upper:"tahoe" ~lower:"fixed"
    @ [ copy runner "tcp.retransmits" "count"; copy runner "tcp.useful_ratio" "ratio" ]
    @ pair "trace" ~upper:"runner" ~lower:"tahoe"
    @ [ { name = "trace.heap_words_per_sim_s";
          value = Perfstats.slope ~x0:h0 ~y0:(get heap0 "top_heap_words")
                    ~x1:h1 ~y1:(get heap1 "top_heap_words");
          unit_ = "words/s" } ]
    @ pair "obs.metrics" ~upper:"metrics" ~lower:"runner"
    @ pair "obs.series" ~upper:"series" ~lower:"metrics"
    @ pair "obs.flowstats" ~upper:"flowstats" ~lower:"runner"
    @ pair "obs.btrace" ~upper:"btrace" ~lower:"runner"
    @ [ copy btrace "obs.btrace.bytes_per_event" "B";
        copy btrace "obs.btrace.read_ns_per_record" "ns";
        copy btrace "obs.flowstats.feed_ns_per_record" "ns" ]
    @ pair "validate" ~upper:"validate" ~lower:"runner"
    @ pair "faults" ~upper:"faults" ~lower:"runner"
    @ [ copy (List.assoc "faults" rungs) "faults.injected" "count";
        copy runner "core.build_ms" "ms";
        copy sweep "sweep.summary_ms_per_point" "ms";
        copy dispatch "pool.dispatch_us_per_point" "us";
        copy sweep "pool.busy_share" "ratio";
        copy sweep "pool.point_ms_p50" "ms";
        copy sweep "pool.point_ms_p90" "ms";
        copy sweep "pool.point_ms_max" "ms" ]
    @ List.map
        (fun (name, _) -> copy suite ("core.experiment_s." ^ name) "s")
        Core.Experiments.registry
    @ [ { name = "gc.minor_words"; value = median_of traced "gc.minor_words"; unit_ = "words" };
        { name = "gc.major_collections"; value = median_of traced "gc.major_collections";
          unit_ = "count" };
        { name = "bench.trace_overhead_pct";
          value = ((mean_wall traced /. mean_wall plain) -. 1.) *. 100.;
          unit_ = "%" } ]
  in
  (children, rows)

(* Write every span of the invocation, and print self time by name. *)
let report_spans ~tag (children : child_out list) =
  match List.concat_map (fun (c : child_out) -> c.spans) children with
  | [] -> ()
  | all ->
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat out_dir ("spans-" ^ tag ^ ".jsonl") in
    let oc = open_out path in
    List.iter (fun sp -> output_string oc (Perfstats.span_json sp ^ "\n")) all;
    close_out oc;
    Printf.printf "\n%d spans written to %s\n%-34s %6s %10s %10s\n" (List.length all) path
      "span" "count" "total_s" "self_s";
    List.iter
      (fun (name, n, tot, self) -> Printf.printf "%-34s %6d %10.4f %10.4f\n" name n tot self)
      (Perfstats.by_name all)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \  workloads: long-run, sweep-grids, observed-run, paper-suite";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let num conv k default =
    match opt k with
    | None -> default
    | Some v -> (match conv v with Some x -> x | None -> usage ())
  in
  let seed = num int_of_string_opt "seed" 0 in
  let seconds = num float_of_string_opt "seconds" 20. in
  let traced = num int_of_string_opt "trace" 0 <> 0 in
  let workload () = match opt "workload" with Some w -> find_workload w | None -> usage () in
  match opt "child" with
  | Some "pass" ->
    child_pass (workload ()) ~seed ~t0:(num float_of_string_opt "t0" (now ())) ~traced
  | Some "rung" -> (match opt "rung" with Some name -> child_rung name | None -> usage ())
  | Some "heap" -> child_heap (num float_of_string_opt "horizon" 1000.)
  | Some "sweep-layer" -> child_sweep_layer ()
  | Some "suite-layer" -> child_suite_layer ()
  | Some "dispatch" -> child_dispatch ()
  | Some "digests" -> child_digests ()
  | Some other -> Printf.eprintf "perfbench: unknown child mode %s\n" other; exit 2
  | None ->
    let w = workload () in
    Printf.printf "perfbench: workload %s, seed %d, %g s, trace %b\n%!" w.name seed seconds
      traced;
    let children, rows =
      if traced then per_layer w ~seed ~seconds else end_to_end w ~seed ~seconds
    in
    report_spans ~tag:(Printf.sprintf "%s-seed%d" w.name seed) children;
    let attempted = List.fold_left (fun a (c : child_out) -> a + c.attempted) 0 children in
    let failed = List.fold_left (fun a (c : child_out) -> a + c.failed) 0 children in
    let correct =
      failed = 0 && attempted > 0 && List.for_all (fun (c : child_out) -> c.ok) children
    in
    print_result ~correct ~attempted:(max 1 attempted) ~failed rows;
    if not correct then exit 1
