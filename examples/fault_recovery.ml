(* Fault recovery: what TCP Tahoe does when the path actually breaks.

   Part 1 wires a dumbbell by hand so we can watch the sender's internals
   live: a 20-second outage cuts the forward bottleneck, every packet in
   flight is lost, the retransmission timer backs off exponentially
   (cwnd pinned at 1), and when the link returns the connection slow-starts
   back to full utilization.

   Part 2 reruns the paper's Figure 4-5 two-way scenario with a bursty
   (Gilbert-Elliott) loss episode on the forward bottleneck and compares
   the queue-phase classification against the clean run.

   Run with:  dune exec examples/fault_recovery.exe
   (the invariant checkers are always attached; the run fails loudly if a
   fault breaks packet conservation or FIFO accounting)               *)

let check name ok =
  Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") name;
  ok

let () =
  (* ---------- Part 1: outage, backoff, recovery ---------- *)
  let outage_start = 60. and outage_stop = 80. and horizon = 180. in
  let sim = Engine.Sim.create () in
  let params = Net.Topology.params ~tau:0.01 ~buffer:(Some 20) () in
  let d = Net.Topology.dumbbell sim params in
  let conn =
    Tcp.Connection.create d.net
      (Tcp.Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
  in
  let harness = Validate.Harness.attach d.net ~conns:[ conn ] in
  let plan =
    Faults.Plan.install d.net d.fwd ~seed:7
      (Faults.Spec.scheduled_outage [ (outage_start, outage_stop) ])
  in
  let sender = Tcp.Connection.sender conn in
  (* Watch the sender live: deepest timer backoff reached, and the
     smallest congestion window seen while the link was down. *)
  let max_backoff = ref 0 in
  Tcp.Sender.on_loss sender (fun _time _reason ->
      max_backoff := max !max_backoff (Tcp.Rto.backoff_count (Tcp.Sender.rto sender)));
  let min_cwnd_in_outage = ref infinity in
  Tcp.Sender.on_cwnd sender (fun time ~cwnd ~ssthresh:_ ->
      if time >= outage_start && time <= outage_stop then
        min_cwnd_in_outage := Float.min !min_cwnd_in_outage cwnd);
  let cwnd_trace = Trace.Cwnd_trace.attach sender ~now:0. in
  (* Meter utilization only after the connection has had time to recover
     from the outage. *)
  let recovery_meter = ref None in
  ignore
    (Engine.Sim.at sim ~time:120. (fun () ->
         recovery_meter :=
           Some (Trace.Util_meter.start d.fwd ~now:(Engine.Sim.now sim)))
      : Engine.Sim.handle);
  Engine.Sim.run sim ~until:horizon;

  print_endline "part 1: 20 s outage on the forward bottleneck";
  Printf.printf "  %s\n" (Faults.Plan.summary plan);
  Printf.printf "  timeouts %d, retransmits %d, deepest RTO backoff %d\n"
    (Tcp.Sender.timeouts sender)
    (Tcp.Sender.retransmits sender)
    !max_backoff;
  let recovery_util =
    match !recovery_meter with
    | Some m -> Trace.Util_meter.utilization m ~now:(Engine.Sim.now sim)
    | None -> 0.
  in
  Printf.printf "  post-outage utilization (t in [120,180)): %.1f%%\n"
    (100. *. recovery_util);
  print_newline ();
  print_endline "  congestion window across the outage (packets):";
  print_string
    (Core.Ascii_plot.render ~width:76 ~height:12
       (Trace.Cwnd_trace.cwnd cwnd_trace)
       ~t0:40. ~t1:140.);
  print_newline ();

  let report = Validate.Harness.finalize harness ~now:(Engine.Sim.now sim) in
  (* Evaluate each check before folding: a list literal would print them
     in reverse (right-to-left construction) and [for_all] would stop at
     the first failure. *)
  let c1 =
    check "outage dropped packets in flight" (Faults.Plan.outage_drops plan > 0)
  in
  let c2 = check "RTO backed off at least twice" (!max_backoff >= 2) in
  let c3 =
    check "cwnd collapsed to 1 during the outage"
      (!min_cwnd_in_outage <= 1.0 +. 1e-9)
  in
  let c4 =
    check "backoff cleared after recovery"
      (Tcp.Rto.backoff_count (Tcp.Sender.rto sender) = 0)
  in
  let c5 =
    check "recovered to >= 90% bottleneck utilization" (recovery_util >= 0.9)
  in
  let c6 = check "invariant checkers clean" (Validate.Report.is_clean report) in
  let part1_ok = c1 && c2 && c3 && c4 && c5 && c6 in
  if not (Validate.Report.is_clean report) then
    prerr_endline (Validate.Report.to_string report);
  print_newline ();

  (* ---------- Part 2: loss burst vs two-way queue phase ---------- *)
  let fig45 ?faults name =
    Core.Scenario.make ~name ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        [
          Core.Scenario.conn ~start_time:0.37 Core.Scenario.Forward;
          Core.Scenario.conn ~start_time:1.91 Core.Scenario.Reverse;
        ]
      ~duration:400. ~warmup:150. ~validate:true ?faults ~fault_seed:5 ()
  in
  let burst =
    Faults.Spec.burst ~p_enter:0.002 ~p_exit:0.05 ~loss_in_burst:0.5 ()
  in
  let clean = Core.Runner.run (fig45 "fig45-clean") in
  let faulty =
    Core.Runner.run
      (fig45 "fig45-burst" ~faults:[ (Core.Scenario.Fwd_bottleneck, burst) ])
  in
  print_endline "part 2: two-way traffic with a bursty loss episode";
  List.iter
    (fun (_site, p) -> Printf.printf "  %s\n" (Faults.Plan.summary p))
    faulty.fault_plans;
  let describe label (r : Core.Runner.result) =
    let phase, corr = Core.Runner.queue_phase r in
    Printf.printf
      "  %-8s queue phase %s (r=%+.2f), util fwd %.1f%%, drops %d\n" label
      (Analysis.Sync.phase_to_string phase)
      corr
      (100. *. r.util_fwd)
      r.tally.drops_window
  in
  describe "clean:" clean;
  describe "burst:" faulty;
  let clean_report r =
    match Core.Runner.validation_report r with
    | Some rep -> Validate.Report.is_clean rep
    | None -> false
  in
  let c7 =
    check "burst plan injected losses"
      (List.exists (fun (_s, p) -> Faults.Plan.losses p > 0) faulty.fault_plans)
  in
  let c8 = check "clean run validates" (clean_report clean) in
  let c9 = check "burst run validates" (clean_report faulty) in
  let part2_ok = c7 && c8 && c9 in
  if not (part1_ok && part2_ok) then exit 1
