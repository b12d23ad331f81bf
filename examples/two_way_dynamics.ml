(* Two-way traffic dynamics: the paper's headline experiment (Figures 4-7).

   One TCP connection in each direction over the same bottleneck.  The
   ACKs of each connection share a queue with the other connection's data,
   and two new phenomena appear: ACK-compression (square-wave queue
   oscillations) and, depending on the pipe size, in-phase or out-of-phase
   window synchronization.

   Run with:  dune exec examples/two_way_dynamics.exe *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let describe tau =
  let scenario =
    Core.Scenario.make
      ~name:(Printf.sprintf "two-way tau=%g" tau)
      ~tau ~buffer:(Some 20)
      ~conns:
        (Core.Scenario.stagger ~step:1.0
           [
             Core.Scenario.conn Core.Scenario.Forward;
             Core.Scenario.conn Core.Scenario.Reverse;
           ])
      ~duration:600. ~warmup:200. ()
  in
  let r = Core.Runner.run ~traces:true scenario in
  let tr = Core.Runner.traces r in
  section
    (Printf.sprintf "tau = %g s (pipe P = %.3g packets)" tau
       (Core.Scenario.pipe scenario));
  let qphase, qcorr = Core.Runner.queue_phase r in
  let cphase, ccorr = Core.Runner.cwnd_phase r 0 1 in
  Printf.printf "queues:  %s (correlation %.2f)\n"
    (Analysis.Sync.phase_to_string qphase) qcorr;
  Printf.printf "windows: %s (correlation %.2f)\n"
    (Analysis.Sync.phase_to_string cphase) ccorr;
  Printf.printf "utilization: %.1f%% / %.1f%% (one-way traffic would reach ~%d%%)\n"
    (100. *. r.util_fwd) (100. *. r.util_bwd)
    (if tau < 0.1 then 100 else 90);
  let epochs = Core.Runner.epochs r in
  Printf.printf "congestion epochs: %d, %.2f drops each\n" (List.length epochs)
    (Option.value ~default:0. (Analysis.Epochs.mean_drops epochs));
  (match Analysis.Epochs.single_loser_fraction epochs with
   | Some f when f > 0.5 ->
     Printf.printf
       "loss pattern: one connection takes BOTH drops (%.0f%% of epochs), \
        roles alternating %.0f%% of the time\n"
       (100. *. f)
       (100. *. Option.value ~default:0. (Analysis.Epochs.alternation epochs))
   | _ ->
     Printf.printf "loss pattern: the two connections lose one packet each\n");
  print_newline ();
  print_endline "congestion windows (the synchronization mode, Figures 5/7):";
  print_string
    (Core.Ascii_plot.render_pair ~width:76 ~height:14
       ~labels:("cwnd conn-1", "cwnd conn-2")
       (Trace.Cwnd_trace.cwnd tr.cwnds.(0))
       (Trace.Cwnd_trace.cwnd tr.cwnds.(1))
       ~t0:r.t0 ~t1:r.t1);
  print_newline ();
  print_endline "bottleneck queues over 30 s (ACK-compression square waves):";
  print_string
    (Core.Ascii_plot.render_pair ~width:76 ~height:14 ~labels:("Q1", "Q2")
       (Trace.Queue_trace.series tr.q1)
       (Trace.Queue_trace.series tr.q2)
       ~t0:(r.t1 -. 30.) ~t1:r.t1)

let () =
  print_endline
    "Two-way TCP traffic on a 50 Kbps bottleneck, one connection per direction.";
  describe 0.01;  (* small pipe: out-of-phase mode, Figures 4-5 *)
  describe 1.0    (* large pipe: in-phase mode, Figures 6-7 *)
