open Engine
open Net

(* host1 -- sw -- host2, generous links *)
let tiny () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let sw = Network.add_switch net ~name:"sw" in
  let h1 = Network.add_host net ~name:"h1" ~proc_delay:0.0001 in
  let h2 = Network.add_host net ~name:"h2" ~proc_delay:0.0001 in
  ignore
    (Network.add_duplex net ~src:h1 ~dst:sw ~bandwidth:1e6 ~prop_delay:0.001
       ~buffer:None
      : Link.t * Link.t);
  ignore
    (Network.add_duplex net ~src:h2 ~dst:sw ~bandwidth:1e6 ~prop_delay:0.001
       ~buffer:None
      : Link.t * Link.t);
  Routing.compute net;
  (sim, net, h1, h2, sw)

let test_end_to_end_dispatch () =
  let sim, net, h1, h2, _ = tiny () in
  let got = ref None in
  Network.register_endpoint net ~host:h2 ~conn:1 (fun p ->
      got := Some (p.Packet.seq, Sim.now sim));
  Network.register_endpoint net ~host:h1 ~conn:1 (fun _ -> ());
  let p =
    Network.make_packet net ~conn:1 ~kind:Packet.Data ~seq:42 ~size:500 ~src:h1
      ~dst:h2 ~retransmit:false
  in
  Network.send_from_host net ~host:h1 p;
  Sim.run sim ~until:1.;
  match !got with
  | Some (seq, t) ->
    Alcotest.(check int) "payload routed" 42 seq;
    (* two links (tx 4ms each at 1Mbps? 500B*8/1e6 = 4ms) + 2 props + proc *)
    Alcotest.(check bool) "arrival after proc delay" true (t > 0.009)
  | None -> Alcotest.fail "packet not delivered"

let test_proc_delay_applied () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let sw = Network.add_switch net ~name:"sw" in
  let h1 = Network.add_host net ~name:"h1" ~proc_delay:0. in
  let h2 = Network.add_host net ~name:"h2" ~proc_delay:0.5 in
  ignore
    (Network.add_duplex net ~src:h1 ~dst:sw ~bandwidth:1e9 ~prop_delay:0.
       ~buffer:None
      : Link.t * Link.t);
  ignore
    (Network.add_duplex net ~src:h2 ~dst:sw ~bandwidth:1e9 ~prop_delay:0.
       ~buffer:None
      : Link.t * Link.t);
  Routing.compute net;
  let arrival = ref None in
  Network.register_endpoint net ~host:h2 ~conn:1 (fun _ ->
      arrival := Some (Sim.now sim));
  let p =
    Network.make_packet net ~conn:1 ~kind:Packet.Data ~seq:0 ~size:100 ~src:h1
      ~dst:h2 ~retransmit:false
  in
  Network.send_from_host net ~host:h1 p;
  Sim.run sim ~until:2.;
  match !arrival with
  | Some t -> Alcotest.(check bool) "0.5s host processing" true (t >= 0.5)
  | None -> Alcotest.fail "not delivered"

(* Endpoints are a table indexed by conn: an id past its end, a hole
   inside it and a negative id must all fail as unknown. *)
let test_missing_endpoint_fails () =
  List.iter
    (fun conn ->
      let sim, net, h1, h2, _ = tiny () in
      Network.register_endpoint net ~host:h2 ~conn:4 (fun _ -> ());
      let p =
        Network.make_packet net ~conn ~kind:Packet.Data ~seq:0 ~size:10 ~src:h1
          ~dst:h2 ~retransmit:false
      in
      Network.send_from_host net ~host:h1 p;
      let raised = try Sim.run sim ~until:1.; false with Failure _ -> true in
      Alcotest.(check bool) (Printf.sprintf "unknown conn %d raises" conn) true
        raised)
    [ 9; 2; -1 ]

let test_fresh_packet_ids () =
  let _, net, h1, h2, _ = tiny () in
  let mk () =
    Network.make_packet net ~conn:1 ~kind:Packet.Ack ~seq:0 ~size:50 ~src:h1
      ~dst:h2 ~retransmit:false
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "unique ids" true (a.Packet.id <> b.Packet.id)

let test_node_accessors () =
  let _, net, h1, _, sw = tiny () in
  Alcotest.(check int) "node count" 3 (Network.node_count net);
  Alcotest.(check string) "host name" "h1" (Network.node_name net h1);
  Alcotest.(check bool) "host kind" true (Network.node_kind net h1 = Network.Host);
  Alcotest.(check bool) "switch kind" true
    (Network.node_kind net sw = Network.Switch);
  Alcotest.(check int) "links" 4 (List.length (Network.links net));
  Alcotest.(check int) "switch degree" 2 (List.length (Network.out_links net sw))

let test_register_on_switch_rejected () =
  let _, net, _, _, sw = tiny () in
  let raised =
    try
      Network.register_endpoint net ~host:sw ~conn:1 (fun _ -> ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "switches have no endpoints" true raised;
  let _, net, h1, _, _ = tiny () in
  Alcotest.check_raises "negative conn"
    (Invalid_argument "Network.register_endpoint: negative conn") (fun () ->
      Network.register_endpoint net ~host:h1 ~conn:(-1) (fun _ -> ()))

let suite =
  ( "network",
    [
      Alcotest.test_case "end-to-end dispatch" `Quick test_end_to_end_dispatch;
      Alcotest.test_case "proc delay applied" `Quick test_proc_delay_applied;
      Alcotest.test_case "missing endpoint fails" `Quick
        test_missing_endpoint_fails;
      Alcotest.test_case "fresh packet ids" `Quick test_fresh_packet_ids;
      Alcotest.test_case "node accessors" `Quick test_node_accessors;
      Alcotest.test_case "register on switch rejected" `Quick
        test_register_on_switch_rejected;
    ] )
