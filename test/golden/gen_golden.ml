(* Golden-trace generator: runs the canonical one-way and two-way
   scenarios and the §5 chain (validation on) and prints a digest of
   each — drop count, utilizations, final congestion windows or
   deliveries, and an MD5 checksum over every full bottleneck queue
   series.  A last section pins the observability metrics of a faulty
   run: the final snapshot JSON and an MD5 over its 1 Hz series.

   The output is diffed against the committed [golden.digest] by the
   [runtest] alias; an intentional behaviour change is accepted with

     dune promote test/golden/golden.digest

   after eyeballing the new numbers against the paper's. *)

let series_checksum s =
  let buf = Buffer.create 4096 in
  Trace.Series.iter s ~f:(fun ~time ~value ->
      Buffer.add_string buf (Printf.sprintf "%.9g:%.9g;" time value));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A golden scenario must also be invariant-clean; bail loudly so the
   digest never silently encodes a buggy run. *)
let check_clean r =
  match Core.Runner.validation_report r with
  | Some report when not (Validate.Report.is_clean report) ->
    prerr_endline (Validate.Report.to_string report);
    failwith "golden scenario violated an invariant"
  | _ -> ()

let digest (scenario : Core.Scenario.t) =
  let r = Core.Runner.run ~traces:true scenario in
  check_clean r;
  Printf.printf "[%s]\n" scenario.Core.Scenario.name;
  Printf.printf "drops = %d\n" (Trace.Drop_log.total (Core.Runner.traces r).drops);
  Printf.printf "util_fwd = %.6f\n" r.Core.Runner.util_fwd;
  Printf.printf "util_bwd = %.6f\n" r.Core.Runner.util_bwd;
  Array.iteri
    (fun i (_, conn) ->
      Printf.printf "cwnd_%d = %.6f\n" (i + 1)
        (Tcp.Sender.cwnd (Tcp.Connection.sender conn)))
    r.Core.Runner.conns;
  Printf.printf "queue_fwd_md5 = %s\n"
    (series_checksum (Trace.Queue_trace.series (Core.Runner.traces r).q1));
  Printf.printf "queue_bwd_md5 = %s\n"
    (series_checksum (Trace.Queue_trace.series (Core.Runner.traces r).q2));
  print_newline ()

(* The §5 chain (Quick TAB-MHOP spec, validation on): per-trunk queue
   series and utilizations in both directions, and each connection's
   total deliveries. *)
let multihop_digest () =
  let scenario =
    { (Core.Experiments.scenario_multihop Core.Experiments.Quick) with
      validate = true }
  in
  let r = Core.Runner.run ~traces:true scenario in
  check_clean r;
  print_endline "[multihop]";
  Printf.printf "drops = %d\n" (Trace.Drop_log.total (Core.Runner.traces r).drops);
  Array.iteri
    (fun i (u_fwd, u_bwd) ->
      let q_fwd, q_bwd = (Core.Runner.traces r).trunk_queues.(i) in
      Printf.printf "trunk%d_util_fwd = %.6f\n" i u_fwd;
      Printf.printf "trunk%d_util_bwd = %.6f\n" i u_bwd;
      Printf.printf "trunk%d_queue_fwd_md5 = %s\n" i
        (series_checksum (Trace.Queue_trace.series q_fwd));
      Printf.printf "trunk%d_queue_bwd_md5 = %s\n" i
        (series_checksum (Trace.Queue_trace.series q_bwd)))
    r.Core.Runner.trunk_utils;
  Array.iteri
    (fun i (_, conn) ->
      Printf.printf "delivered_%d = %d\n" (i + 1)
        (Tcp.Connection.delivered conn))
    r.Core.Runner.conns;
  print_newline ()

(* Two-way traffic with delayed ACKs through Random Drop gateways, with
   loss, duplication, jitter and an outage on both bottlenecks: every
   count metric (faults and delayed ACKs included) moves. *)
let metrics_digest () =
  let open Core.Scenario in
  let spec =
    Faults.Spec.make ~loss:(Faults.Spec.Bernoulli 0.01)
      ~outage:{ Faults.Spec.windows = [ (30., 32.) ]; flap = None }
      ~jitter:{ Faults.Spec.bound = 0.002; preserve_order = true }
      ~duplicate:0.01 ()
  in
  let scenario =
    make ~name:"metrics" ~tau:0.01 ~buffer:(Some 20)
      ~gateway:(Net.Discipline.Random_drop { seed = 7 })
      ~conns:
        (stagger ~step:1.5
           [
             conn ~delayed_ack:true Forward;
             conn ~delayed_ack:true Forward;
             conn ~delayed_ack:true Reverse;
           ])
      ~duration:60. ~warmup:20. ~validate:true
      ~faults:[ (Fwd_bottleneck, spec); (Bwd_bottleneck, spec) ]
      ~fault_seed:3 ()
  in
  let r =
    Core.Runner.run ~obs:(Obs.Probe.setup ~series_dt:1.0 ()) scenario
  in
  check_clean r;
  let probe = Option.get r.Core.Runner.obs in
  print_endline "[metrics]";
  Printf.printf "final = %s\n" (Obs.Probe.metrics_json probe);
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Buffer.add_string buf (series_checksum s);
      Buffer.add_char buf ';')
    (Obs.Probe.series probe);
  Printf.printf "series = %d\n" (List.length (Obs.Probe.series probe));
  Printf.printf "series_md5 = %s\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  print_newline ()

let () =
  let open Core.Scenario in
  (* The paper's baseline: one connection over the long-wire dumbbell. *)
  digest
    (make ~name:"one-way" ~tau:1.0 ~buffer:(Some 20)
       ~conns:[ conn Forward ]
       ~duration:120. ~warmup:40. ~validate:true ());
  (* Two-way traffic on the short wire: the regime where ACK compression
     and out-of-phase queues appear (Figures 4-7). *)
  digest
    (make ~name:"two-way" ~tau:0.01 ~buffer:(Some 20)
       ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
       ~duration:120. ~warmup:40. ~validate:true ());
  multihop_digest ();
  metrics_digest ()
