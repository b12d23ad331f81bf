type params = {
  bottleneck_bw : float;
  tau : float;
  host_bw : float;
  host_delay : float;
  proc_delay : float;
  buffer : int option;
  gateway : Discipline.kind;
}

let params ?(gateway = Discipline.Fifo) ~tau ~buffer () =
  {
    bottleneck_bw = Engine.Units.kbps 50.;
    tau;
    host_bw = Engine.Units.mbps 10.;
    host_delay = Engine.Units.ms 0.1;
    proc_delay = Engine.Units.ms 0.1;
    buffer;
    gateway;
  }

type dumbbell = {
  net : Network.t;
  host1 : int;
  host2 : int;
  switch1 : int;
  switch2 : int;
  fwd : Link.t;
  bwd : Link.t;
}

let attach_host net p ~name ~switch =
  let host = Network.add_host net ~name ~proc_delay:p.proc_delay in
  let _ =
    Network.add_duplex net ~src:host ~dst:switch ~bandwidth:p.host_bw
      ~prop_delay:p.host_delay ~buffer:None
  in
  host

type chain = {
  cnet : Network.t;
  hosts : int array;
  switches : int array;
  trunks : (Link.t * Link.t) array;
}

let chain sim p ~num_switches =
  if num_switches < 2 then invalid_arg "Topology.chain: need >= 2 switches";
  let net = Network.create sim in
  let switches =
    Array.init num_switches (fun i ->
        Network.add_switch net ~name:(Printf.sprintf "sw%d" (i + 1)))
  in
  let trunks =
    Array.init (num_switches - 1) (fun i ->
        Network.add_duplex ~discipline:p.gateway net ~src:switches.(i)
          ~dst:switches.(i + 1) ~bandwidth:p.bottleneck_bw ~prop_delay:p.tau
          ~buffer:p.buffer)
  in
  let hosts =
    Array.init num_switches (fun i ->
        attach_host net p
          ~name:(Printf.sprintf "host%d" (i + 1))
          ~switch:switches.(i))
  in
  Routing.compute net;
  { cnet = net; hosts; switches; trunks }

let dumbbell_of_chain c =
  let fwd, bwd = c.trunks.(0) in
  {
    net = c.cnet;
    host1 = c.hosts.(0);
    host2 = c.hosts.(1);
    switch1 = c.switches.(0);
    switch2 = c.switches.(1);
    fwd;
    bwd;
  }

let dumbbell sim p = dumbbell_of_chain (chain sim p ~num_switches:2)
