(* The §5 chain as an ordinary scenario: built by
   [Experiments.scenario_chain], run by [Runner.run]. *)

let small ?buffer ?faults () =
  Core.Experiments.scenario_chain ~num_switches:4 ~connections:12 ?buffer
    ~seed:7 ?faults ~duration:60. ~warmup:20. ()

let hops (spec : Core.Scenario.conn_spec) =
  let lo, hi = spec.span in
  hi - lo

let test_structure () =
  let r = Core.Runner.run ~traces:true (small ()) in
  let tr = Core.Runner.traces r in
  Alcotest.(check int) "trunk count" 3 (Array.length tr.trunk_queues);
  Alcotest.(check int) "departure logs per trunk" 3
    (Array.length tr.trunk_deps);
  Alcotest.(check int) "utils per trunk" 3 (Array.length r.trunk_utils);
  Alcotest.(check int) "all connections built" 12 (Array.length r.conns);
  Alcotest.(check bool) "trunk 0 is the dumbbell bottleneck" true
    (fst tr.trunk_queues.(0) == tr.q1 && snd tr.trunk_queues.(0) == tr.q2);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "trunk 0 utilization is util_fwd/util_bwd" r.trunk_utils.(0)
    (r.util_fwd, r.util_bwd)

let test_hop_distribution () =
  let hops = List.map hops (small ()).conns in
  List.iter
    (fun h -> Alcotest.(check bool) "hops in 1..3" true (h >= 1 && h <= 3))
    hops;
  (* the classes cycle, so each of 1,2,3 appears equally often *)
  let count k = List.length (List.filter (( = ) k) hops) in
  Alcotest.(check int) "1-hop count" 4 (count 1);
  Alcotest.(check int) "2-hop count" 4 (count 2);
  Alcotest.(check int) "3-hop count" 4 (count 3);
  List.iteri
    (fun i (spec : Core.Scenario.conn_spec) ->
      Alcotest.(check bool) "directions alternate" true
        (spec.dir
        = if i mod 2 = 0 then Core.Scenario.Forward else Core.Scenario.Reverse))
    (small ()).conns

let test_traffic_flows () =
  let r = Core.Runner.run (small ()) in
  Array.iter
    (fun (_, c) ->
      Alcotest.(check bool) "every connection progressed" true
        (Tcp.Connection.delivered c > 0))
    r.conns;
  Array.iter
    (fun (u1, u2) ->
      Alcotest.(check bool) "utils within [0,1]" true
        (u1 >= 0. && u1 <= 1. && u2 >= 0. && u2 <= 1.))
    r.trunk_utils

let test_determinism () =
  let run () =
    let r = Core.Runner.run (small ()) in
    Array.map (fun (_, c) -> Tcp.Connection.delivered c) r.conns
  in
  Alcotest.(check bool) "same seed, same outcome" true (run () = run ())

let test_gateway_variants () =
  (* The chain runs under every buffer size without stalling a
     connection. *)
  List.iter
    (fun buffer ->
      let r = Core.Runner.run (small ~buffer ()) in
      Array.iter
        (fun (_, c) ->
          Alcotest.(check bool) "progress" true (Tcp.Connection.delivered c > 0))
        r.conns)
    [ Some 10; Some 30; None ]

let test_bad_spec () =
  let raises f =
    try
      ignore (f () : Core.Scenario.t);
      false
    with Invalid_argument _ -> true
  in
  let make ?(num_switches = 4) ?(span = (0, 1)) ?(faults = []) () =
    Core.Scenario.make ~name:"bad" ~num_switches ~tau:0.01 ~buffer:(Some 30)
      ~conns:[ Core.Scenario.conn ~span Core.Scenario.Forward ]
      ~faults ~duration:60. ~warmup:20. ()
  in
  let loss = Faults.Spec.bernoulli 0.01 in
  Alcotest.(check bool) "valid chain accepted" false (raises make);
  Alcotest.(check bool) "too few switches" true
    (raises (make ~num_switches:1 ~span:(0, 0)));
  Alcotest.(check bool) "span past the last switch" true
    (raises (make ~span:(2, 4)));
  Alcotest.(check bool) "empty span" true (raises (make ~span:(1, 1)));
  Alcotest.(check bool) "fault on a missing trunk" true
    (raises (make ~faults:[ (Core.Scenario.Trunk (3, Forward), loss) ]));
  Alcotest.(check bool) "fault on a negative trunk" true
    (raises (make ~faults:[ (Core.Scenario.Trunk (-1, Reverse), loss) ]));
  Alcotest.(check bool) "trunk 0 forward is the fwd bottleneck" true
    (raises
       (make
          ~faults:
            [
              (Core.Scenario.Fwd_bottleneck, loss);
              (Core.Scenario.Trunk (0, Forward), loss);
            ]));
  Alcotest.(check bool) "bad window" true
    (raises (fun () ->
         Core.Experiments.scenario_chain ~duration:60. ~warmup:60. ()))

let test_trunk_fault () =
  (* A trunk-addressed fault lands on that trunk's right-going link. *)
  let faults =
    [ (Core.Scenario.Trunk (1, Forward), Faults.Spec.bernoulli 0.05) ]
  in
  let r = Core.Runner.run (small ~faults ()) in
  match r.fault_plans with
  | [ (Core.Scenario.Trunk (1, Forward), plan) ] ->
    let link = Faults.Plan.link plan in
    let name node = Net.Network.node_name r.dumbbell.net node in
    Alcotest.(check (pair string string)) "sw2 -> sw3" ("sw2", "sw3")
      (name (Net.Link.src link), name (Net.Link.dst link));
    Alcotest.(check bool) "plan dropped packets" true
      (Faults.Plan.losses plan > 0)
  | _ -> Alcotest.fail "expected one plan on trunk 1"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_budgeted_chain_bundle () =
  (* Before the chain ran through Runner it had no budgets or bundles. *)
  let dir = "multihop-bundles" in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let r =
    Core.Runner.run
      ~budget:(Core.Runner.budget ~max_events:5000 ())
      ~bundle_dir:dir (small ())
  in
  (match r.stop with
   | Engine.Sim.Event_budget 5000 -> ()
   | st ->
     Alcotest.failf "expected an event-budget stop, got %s"
       (Engine.Sim.stop_reason_to_string st));
  let path =
    match r.bundle with
    | Some p -> p
    | None -> Alcotest.fail "budget stop wrote no bundle"
  in
  match Core.Crash.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok (s, meta) ->
    Alcotest.(check int) "chain survives Marshal" 4 s.num_switches;
    Alcotest.(check string) "kind" Core.Crash.kind_event_budget meta.kind;
    let r2 =
      Core.Runner.run
        ~budget:(Core.Runner.budget ?max_events:meta.max_events ())
        s
    in
    Alcotest.(check string) "replay stops the same way"
      (Engine.Sim.stop_reason_to_string r.stop)
      (Engine.Sim.stop_reason_to_string r2.stop);
    Alcotest.(check (float 0.)) "replay reaches the same simulated time" r.t1
      r2.t1

let suite =
  ( "multihop",
    [
      Alcotest.test_case "structure" `Quick test_structure;
      Alcotest.test_case "hop distribution" `Quick test_hop_distribution;
      Alcotest.test_case "traffic flows" `Quick test_traffic_flows;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "gateway variants" `Quick test_gateway_variants;
      Alcotest.test_case "bad spec" `Quick test_bad_spec;
      Alcotest.test_case "trunk fault" `Quick test_trunk_fault;
      Alcotest.test_case "budgeted chain bundle replays" `Quick
        test_budgeted_chain_bundle;
    ] )
