(* Differential test of the streaming tally: every value it folds up
   event by event must equal, bit for bit, what the batch analyses
   compute from the full recorded traces of the same run. *)

open QCheck

type case = {
  tau : float;
  buffer : int option;
  gateway : Net.Discipline.kind;
  n_fwd : int;
  n_rev : int;
  warmup : float;
  duration : float;
  loss : float;
  outage : (float * float) option;
  stop : float option;  (* event budget, as a fraction of the full run's *)
}

let gateway_name = function
  | Net.Discipline.Fifo -> "fifo"
  | Net.Discipline.Random_drop _ -> "random-drop"
  | Net.Discipline.Fair_queue -> "fair-queue"

let case_gen =
  let open Gen in
  let* tau = oneofl [ 0.01; 0.1; 0.5 ] in
  let* buffer = oneof [ return None; map (fun b -> Some b) (int_range 3 25) ] in
  let* gateway =
    oneofl
      [ Net.Discipline.Fifo; Net.Discipline.Random_drop { seed = 3 };
        Net.Discipline.Fair_queue ]
  in
  let* n_fwd = int_range 1 4 in
  let* n_rev = int_range 1 4 in
  let* warmup = oneofl [ 0.; 5.; 12.5; 20. ] in
  let* span = float_range 10. 40. in
  let duration = warmup +. span in
  let* loss = oneofl [ 0.; 0.; 0.02; 0.1 ] in
  let* outage =
    oneof
      [ return None;
        map2 (fun a len -> Some (a, a +. len))
          (float_range 0. duration) (float_range 0.5 8.) ]
  in
  let* stop = oneof [ return None; map Option.some (float_range 0.01 1.) ] in
  return { tau; buffer; gateway; n_fwd; n_rev; warmup; duration; loss; outage; stop }

let case_print c =
  Printf.sprintf
    "{tau=%g; buffer=%s; gateway=%s; fwd=%d; rev=%d; warmup=%g; duration=%g; \
     loss=%g; outage=%s; stop=%s}"
    c.tau
    (match c.buffer with None -> "inf" | Some b -> string_of_int b)
    (gateway_name c.gateway) c.n_fwd c.n_rev c.warmup c.duration c.loss
    (match c.outage with
     | None -> "none"
     | Some (a, b) -> Printf.sprintf "(%g,%g)" a b)
    (match c.stop with None -> "none" | Some f -> Printf.sprintf "%g" f)

let scenario_of c =
  let open Core.Scenario in
  let conns dir n = List.init n (fun _ -> conn dir) in
  let faults =
    let specs =
      (if c.loss > 0. then [ Faults.Spec.bernoulli c.loss ] else [])
      @ Option.to_list
          (Option.map (fun w -> Faults.Spec.scheduled_outage [ w ]) c.outage)
    in
    match specs with
    | [] -> []
    | s :: rest -> [ (Fwd_bottleneck, List.fold_left Faults.Spec.merge s rest) ]
  in
  make ~name:"tally" ~tau:c.tau ~buffer:c.buffer ~gateway:c.gateway
    ~conns:(stagger ~step:0.7 (conns Forward c.n_fwd @ conns Reverse c.n_rev))
    ~duration:c.duration ~warmup:c.warmup ~faults ~fault_seed:5 ()

let events (r : Core.Runner.result) =
  Engine.Sim.events_run (Net.Network.sim r.dumbbell.net)

(* The run under test: [~traces:true], stopped early when the case
   says so.  The budget is a fraction of the full run's event count, so
   the stop lands before warm-up, inside the window, or not at all. *)
let run_case c =
  let sc = scenario_of c in
  match c.stop with
  | None -> Core.Runner.run ~traces:true sc
  | Some f ->
    let total = events (Core.Runner.run sc) in
    let max_events = max 1 (int_of_float (f *. float_of_int total)) in
    Core.Runner.run ~traces:true
      ~budget:(Core.Runner.budget ~max_events ())
      sc

let float_eq what a b =
  if not (Float.equal a b) then
    Test.fail_reportf "%s: tally %.17g, batch %.17g" what a b

let int_eq what a b =
  if a <> b then Test.fail_reportf "%s: tally %d, batch %d" what a b

let grid_array g = Array.init (Trace.Tally.grid_length g) (Trace.Tally.grid_get g)

(* The tally's window values against [Series.min_max], [Series.resample]
   and [Sync.classify], [Drop_log.in_window] and [Epochs.detect]. *)
let check_window (s : Trace.Tally.summary) ~q1 ~q2 ~drops ~t0 ~t1 ~dt =
  let qmax what q v =
    match Trace.Series.min_max (Trace.Queue_trace.series q) ~t0 ~t1 with
    | Some (_, hi) -> float_eq what v hi
    | None -> Test.fail_reportf "%s: empty batch series" what
  in
  qmax "q1 max" q1 s.q1_max;
  qmax "q2 max" q2 s.q2_max;
  if t1 > t0 then begin
    let grid what q xs =
      let batch = Trace.Series.resample (Trace.Queue_trace.series q) ~t0 ~t1 ~dt in
      let xs = grid_array xs in
      int_eq (what ^ " length") (Array.length xs) (Array.length batch);
      Array.iteri (fun i x -> float_eq (Printf.sprintf "%s[%d]" what i) x batch.(i)) xs
    in
    grid "q1 grid" q1 s.q1_grid;
    grid "q2 grid" q2 s.q2_grid
  end
  else int_eq "empty-window grid" (Trace.Tally.grid_length s.q1_grid) 0;
  let window = Trace.Drop_log.in_window drops ~t0 ~t1 in
  int_eq "drops in window" s.drops_window (List.length window);
  int_eq "drops total" s.drops_total (Trace.Drop_log.total drops);
  let epochs = Analysis.Epochs.detect ~gap:Trace.Tally.epoch_gap window in
  int_eq "epochs" s.epochs (List.length epochs);
  int_eq "single losers" s.single_losers
    (List.length
       (List.filter (fun e -> List.length (Analysis.Epochs.conns_hit e) = 1) epochs))

let prop_runner_tally =
  Test.make ~name:"runner tally equals the batch analyses of its traces"
    ~count:40
    (QCheck.make ~print:case_print case_gen)
    (fun c ->
      let r = run_case c in
      let tr = Core.Runner.traces r in
      let t0 = r.t0 and t1 = r.t1 and dt = r.scenario.sample_dt in
      check_window r.tally ~q1:tr.q1 ~q2:tr.q2 ~drops:tr.drops ~t0 ~t1 ~dt;
      let phase, corr = Core.Runner.queue_phase r in
      if t1 > t0 then begin
        let bphase, bcorr =
          Analysis.Sync.classify
            (Trace.Queue_trace.series tr.q1)
            (Trace.Queue_trace.series tr.q2)
            ~t0 ~t1 ~dt
        in
        if phase <> bphase then Test.fail_report "queue phase differs";
        float_eq "queue correlation" corr bcorr
      end;
      (* The per-epoch ratios keep the batch arithmetic. *)
      let s = Sweep.Summary.of_result ~id:"tally" r in
      let epochs = Core.Runner.epochs r in
      let opt_eq what a b =
        match (a, b) with
        | None, None -> ()
        | Some a, Some b -> float_eq what a b
        | _ -> Test.fail_reportf "%s: one side is None" what
      in
      opt_eq "mean drops per epoch" s.mean_drops_per_epoch
        (Analysis.Epochs.mean_drops epochs);
      opt_eq "single-loser fraction" s.single_loser
        (Analysis.Epochs.single_loser_fraction epochs);
      true)

(* ------------------------------------------------------------------ *)
(* The ACK sojourn part, against [Sojourn_trace] on the same links      *)
(* ------------------------------------------------------------------ *)

(* [Runner.run] attaches no [Sojourn_trace], so this property builds the
   dumbbell itself and hangs the tally and every batch recorder on it. *)
let config (d : Net.Topology.dumbbell) i (spec : Core.Scenario.conn_spec) =
  let src_host, dst_host =
    match spec.dir with
    | Core.Scenario.Forward -> (d.host1, d.host2)
    | Core.Scenario.Reverse -> (d.host2, d.host1)
  in
  Tcp.Config.make ~conn:(i + 1) ~src_host ~dst_host ~ack_size:spec.ack_size
    ~maxwnd:spec.maxwnd ~cc:spec.cc ~start_time:spec.start_time
    ~delayed_ack:spec.delayed_ack ~loss_detection:spec.loss_detection
    ~rto_params:spec.rto_params ~pacing:spec.pacing ~rtt_skew:spec.rtt_skew
    ~flow_size:spec.flow_size ()

let prop_sojourn =
  Test.make ~name:"tally ACK sojourns equal Sojourn_trace's" ~count:40
    (QCheck.make ~print:case_print case_gen)
    (fun c ->
      let sc = scenario_of c in
      let sim = Engine.Sim.create () in
      let d =
        Net.Topology.dumbbell sim
          (Net.Topology.params ~gateway:sc.gateway ~tau:sc.tau
             ~buffer:sc.buffer ())
      in
      List.iteri
        (fun i spec -> ignore (Tcp.Connection.create d.net (config d i spec)))
        sc.conns;
      List.iter
        (fun (_, spec) ->
          ignore (Faults.Plan.install d.net d.fwd ~seed:sc.fault_seed spec))
        sc.faults;
      let t0 = sc.warmup and dt = sc.sample_dt in
      let tally =
        Trace.Tally.attach ~links:(Net.Network.links d.net) ~fwd:d.fwd
          ~bwd:d.bwd ~t0 ~horizon:sc.duration ~dt
      in
      let q1 = Trace.Queue_trace.attach d.fwd ~now:0. in
      let q2 = Trace.Queue_trace.attach d.bwd ~now:0. in
      let drops = Trace.Drop_log.create () in
      List.iter (Trace.Drop_log.watch drops) (Net.Network.links d.net);
      let soj_fwd = Trace.Sojourn_trace.attach d.fwd in
      let soj_bwd = Trace.Sojourn_trace.attach d.bwd in
      (* A fraction of 20 000 events; these runs take about 1 500 to
         20 000, so the stop also lands past the horizon. *)
      let max_events =
        Option.map (fun f -> max 1 (int_of_float (f *. 20_000.))) c.stop
      in
      let stop = Engine.Sim.run_guarded sim ~until:sc.duration ?max_events () in
      let t1 =
        if stop = Engine.Sim.Completed then sc.duration
        else Float.max t0 (Engine.Sim.now sim)
      in
      let s = Trace.Tally.finish tally ~t1 in
      check_window s ~q1 ~q2 ~drops ~t0 ~t1 ~dt;
      let acks soj sum n what =
        let batch =
          List.filter
            (fun (x : Trace.Sojourn_trace.record) -> x.kind = Net.Packet.Ack)
            (Trace.Sojourn_trace.in_window soj ~t0 ~t1)
        in
        int_eq (what ^ " ACK count") n (List.length batch);
        match Trace.Sojourn_trace.mean_sojourn soj ~kind:Net.Packet.Ack ~t0 ~t1 with
        | None -> int_eq (what ^ " no ACKs") n 0
        | Some mean ->
          float_eq (what ^ " mean ACK sojourn") (sum /. float_of_int n) mean
      in
      acks soj_fwd s.ack_sojourn_fwd s.acks_fwd "fwd";
      acks soj_bwd s.ack_sojourn_bwd s.acks_bwd "bwd";
      (* The effective pipe is the larger direction's. *)
      let data_tx = Core.Scenario.data_tx sc in
      let pipe soj =
        Trace.Sojourn_trace.effective_pipe_packets soj ~data_tx ~t0 ~t1
      in
      (match
         ( Trace.Tally.effective_pipe s ~data_tx,
           match (pipe soj_fwd, pipe soj_bwd) with
           | Some a, Some b -> Some (Float.max a b)
           | (Some _ as x), None | None, (Some _ as x) -> x
           | None, None -> None )
       with
       | None, None -> ()
       | Some a, Some b -> float_eq "effective pipe" a b
       | _ -> Test.fail_report "effective pipe: one side is None");
      true)

(* ------------------------------------------------------------------ *)
(* Edge instants                                                        *)
(* ------------------------------------------------------------------ *)

(* Two 0.1 s-per-packet links with no propagation delay; [sends] offers
   (time, packet id, kind) to the first. *)
let packet ~id ~kind =
  { Net.Packet.id; conn = 1; kind; seq = id; size = 500; src = 0; dst = 1;
    born = 0.; retransmit = false }

let edge_links ~buffer sends =
  let sim = Engine.Sim.create () in
  let link id =
    let l =
      Net.Link.create sim ~id ~name:"edge" ~src:0 ~dst:1 ~bandwidth:40_000.
        ~prop_delay:0. ~buffer
    in
    Net.Link.set_deliver l ignore;
    l
  in
  let fwd = link 0 and bwd = link 1 in
  List.iter
    (fun (time, id, kind) ->
      ignore
        (Engine.Sim.at sim ~time (fun () ->
             ignore (Net.Link.send fwd (packet ~id ~kind) : [ `Ok | `Dropped ]))
          : Engine.Sim.handle))
    sends;
  (sim, fwd, bwd)

(* The last sample at or before t0 is carried into the window, the
   earlier ones are not: the queue rises to 2 at 0.95 and is back at 1
   after the departure at exactly t0 = 1.0. *)
let test_sample_at_t0 () =
  let sim, fwd, bwd =
    edge_links ~buffer:None
      [ (0.9, 0, Net.Packet.Data); (0.95, 1, Net.Packet.Data) ]
  in
  let tally =
    Trace.Tally.attach ~links:[ fwd; bwd ] ~fwd ~bwd ~t0:1.0 ~horizon:2.0
      ~dt:0.25
  in
  let q1 = Trace.Queue_trace.attach fwd ~now:0. in
  Engine.Sim.run sim ~until:2.0;
  let s = Trace.Tally.finish tally ~t1:2.0 in
  Alcotest.(check (float 0.)) "max carried from t0" 1. s.q1_max;
  Alcotest.(check (float 0.)) "max equals Series.min_max" 1.
    (snd (Option.get (Trace.Series.min_max (Trace.Queue_trace.series q1)
                        ~t0:1.0 ~t1:2.0)));
  Alcotest.(check (array (float 0.))) "grid starts at t0's last sample"
    [| 1.; 0.; 0.; 0. |] (grid_array s.q1_grid);
  Alcotest.(check (array (float 0.))) "grid equals Series.resample"
    (Trace.Series.resample (Trace.Queue_trace.series q1) ~t0:1.0 ~t1:2.0
       ~dt:0.25)
    (grid_array s.q1_grid)

(* Lengths past one and two bytes widen the grid without changing the
   points already stored: 70 000 packets arrive at 0.1 s and drain at 10
   a second. *)
let test_wide_queue () =
  let sim, fwd, bwd =
    edge_links ~buffer:None (List.init 70_000 (fun id -> (0.1, id, Net.Packet.Data)))
  in
  let tally =
    Trace.Tally.attach ~links:[ fwd; bwd ] ~fwd ~bwd ~t0:0. ~horizon:20.
      ~dt:0.05
  in
  let q1 = Trace.Queue_trace.attach fwd ~now:0. in
  Engine.Sim.run sim ~until:20.;
  let s = Trace.Tally.finish tally ~t1:20. in
  Alcotest.(check (float 0.)) "max" 70_000. s.q1_max;
  Alcotest.(check (array (float 0.))) "grid equals Series.resample"
    (Trace.Series.resample (Trace.Queue_trace.series q1) ~t0:0. ~t1:20.
       ~dt:0.05)
    (grid_array s.q1_grid)

(* The grids grow with the simulated time run, not the horizon: a run
   budgeted to 10 000 events of a 10^7 s scenario allocates about what
   the same run of a 100 s scenario does, where grids sized for the
   horizon would take 4 * 10^7 words. *)
let test_budget_bounds_memory () =
  let allocated duration =
    let sc =
      Core.Scenario.make ~name:"long" ~tau:0.01 ~buffer:(Some 20)
        ~conns:[ Core.Scenario.conn Core.Scenario.Forward;
                 Core.Scenario.conn Core.Scenario.Reverse ]
        ~duration ~warmup:5. ()
    in
    (* [Gc.minor_words] is exact; the major counters cover the
       allocations made directly on the major heap.  The minor heap is
       emptied before the baseline: otherwise a minor collection inside
       the run promotes objects allocated before it, whose promoted
       words are subtracted without their minor words being counted,
       and the difference can go negative. *)
    let words () =
      let s = Gc.quick_stat () in
      Gc.minor_words () +. s.major_words -. s.promoted_words
    in
    Gc.minor ();
    let before = words () in
    let r =
      Core.Runner.run ~budget:(Core.Runner.budget ~max_events:10_000 ()) sc
    in
    let words = words () -. before in
    Alcotest.(check bool) "stopped in the window" true (r.t1 > r.t0);
    (words, r)
  in
  let short, r_short = allocated 100. in
  let long, r_long = allocated 1e7 in
  Alcotest.(check int) "same grid"
    (Trace.Tally.grid_length r_short.tally.q1_grid)
    (Trace.Tally.grid_length r_long.tally.q1_grid);
  if long > short +. 10_000. then
    Alcotest.failf "10^7 s horizon allocated %.0f words, 100 s %.0f" long short

(* Drops exactly [epoch_gap] apart share an epoch; further apart they
   do not. *)
let test_epoch_gap_boundary () =
  let sim, fwd, bwd =
    edge_links ~buffer:(Some 1)
      [ (1.0, 0, Net.Packet.Data); (1.0625, 1, Net.Packet.Data);
        (6.0, 2, Net.Packet.Data); (6.0625, 3, Net.Packet.Data);
        (11.0625, 4, Net.Packet.Data); (11.125, 5, Net.Packet.Data) ]
  in
  let tally =
    Trace.Tally.attach ~links:[ fwd; bwd ] ~fwd ~bwd ~t0:0. ~horizon:20.
      ~dt:1.
  in
  let drops = Trace.Drop_log.create () in
  Trace.Drop_log.watch drops fwd;
  Engine.Sim.run sim ~until:20.;
  let s = Trace.Tally.finish tally ~t1:20. in
  let epochs =
    Analysis.Epochs.detect ~gap:Trace.Tally.epoch_gap
      (Trace.Drop_log.in_window drops ~t0:0. ~t1:20.)
  in
  Alcotest.(check int) "drops" 3 s.drops_window;
  Alcotest.(check int) "two epochs" 2 s.epochs;
  Alcotest.(check int) "batch agrees" (List.length epochs) s.epochs;
  Alcotest.(check int) "one loser each" 2 s.single_losers

(* A run stopped right after the events at t = 1.1: the drop and the ACK
   departure at that instant lie outside [t0, t1). *)
let test_events_at_stop_t1 () =
  let sends =
    [ (0.5, 0, Net.Packet.Ack); (0.55, 1, Net.Packet.Data);
      (1.0, 2, Net.Packet.Ack); (1.1, 3, Net.Packet.Data) ]
  in
  let run ?max_events () =
    let sim, fwd, bwd = edge_links ~buffer:(Some 1) sends in
    let tally =
      Trace.Tally.attach ~links:[ fwd; bwd ] ~fwd ~bwd ~t0:0. ~horizon:2.0
        ~dt:0.5
    in
    let drops = Trace.Drop_log.create () in
    Trace.Drop_log.watch drops fwd;
    let soj = Trace.Sojourn_trace.attach fwd in
    let stop = Engine.Sim.run_guarded sim ~until:2.0 ?max_events () in
    let t1 =
      if stop = Engine.Sim.Completed then 2.0 else Engine.Sim.now sim
    in
    (t1, Trace.Tally.finish tally ~t1, drops, soj)
  in
  (* Events: send 0.5, send 0.55 (dropped), departure 0.6, delivery
     0.6, send 1.0, send 1.1 (dropped: the ACK still occupies the
     buffer), departure 1.1 — then stop. *)
  let t1, s, drops, soj = run ~max_events:7 () in
  Alcotest.(check (float 0.)) "stopped at the shared instant" 1.1 t1;
  Alcotest.(check int) "drop at t1 excluded" 1 s.drops_window;
  Alcotest.(check int) "batch agrees"
    (List.length (Trace.Drop_log.in_window drops ~t0:0. ~t1)) s.drops_window;
  Alcotest.(check int) "total counts it" 2 s.drops_total;
  Alcotest.(check int) "ACK departure at t1 excluded" 1 s.acks_fwd;
  Alcotest.(check (option (float 0.))) "sojourn equals the batch mean"
    (Trace.Sojourn_trace.mean_sojourn soj ~kind:Net.Packet.Ack ~t0:0. ~t1)
    (Some (s.ack_sojourn_fwd /. float_of_int s.acks_fwd));
  let _, full, _, _ = run () in
  Alcotest.(check int) "completed run counts both drops" 2 full.drops_window;
  Alcotest.(check int) "completed run counts both ACKs" 2 full.acks_fwd

let suite =
  ( "tally",
    [
      Alcotest.test_case "sample at t0" `Quick test_sample_at_t0;
      Alcotest.test_case "queue lengths past one byte" `Quick test_wide_queue;
      Alcotest.test_case "event budget bounds grid memory" `Quick
        test_budget_bounds_memory;
      Alcotest.test_case "epoch gap boundary" `Quick test_epoch_gap_boundary;
      Alcotest.test_case "drop and ACK departure at an early-stop t1" `Quick
        test_events_at_stop_t1;
      QCheck_alcotest.to_alcotest prop_runner_tally;
      QCheck_alcotest.to_alcotest prop_sojourn;
    ] )
