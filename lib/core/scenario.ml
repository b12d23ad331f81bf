type direction = Forward | Reverse

type conn_spec = {
  dir : direction;
  cc : Tcp.Cc.spec;
  start_time : float;
  delayed_ack : bool;
  ack_size : int;
  loss_detection : bool;
  maxwnd : int;
  rto_params : Tcp.Rto.params;
  pacing : float option;
  rtt_skew : float;
  flow_size : int option;
  span : int * int;
}

let conn ?algorithm ?cc ?(start_time = 0.)
    ?(delayed_ack = false) ?(ack_size = 50) ?(loss_detection = true)
    ?(maxwnd = 1000) ?(rto_params = Tcp.Rto.default_params) ?(pacing = None)
    ?(rtt_skew = 0.) ?(flow_size = None) ?(span = (0, 1)) dir =
  let cc =
    match (cc, algorithm) with
    | Some s, _ -> s
    | None, Some a -> Tcp.Cc.spec_of_algorithm a
    | None, None -> Tcp.Cc.spec "tahoe"
  in
  {
    dir;
    cc;
    start_time;
    delayed_ack;
    ack_size;
    loss_detection;
    maxwnd;
    rto_params;
    pacing;
    rtt_skew;
    flow_size;
    span;
  }

let fixed_conn ?(start_time = 0.) ?(ack_size = 50) ~window dir =
  {
    dir;
    cc = Tcp.Cc.spec ~params:[ ("w", float_of_int window) ] "fixed";
    start_time;
    delayed_ack = false;
    ack_size;
    loss_detection = false;
    maxwnd = max 1000 (window + 1);
    rto_params = Tcp.Rto.default_params;
    pacing = None;
    rtt_skew = 0.;
    flow_size = None;
    span = (0, 1);
  }

type fault_site =
  | Fwd_bottleneck
  | Bwd_bottleneck
  | Trunk of int * direction

let fault_trunk = function
  | Fwd_bottleneck -> (0, Forward)
  | Bwd_bottleneck -> (0, Reverse)
  | Trunk (i, dir) -> (i, dir)

type t = {
  name : string;
  num_switches : int;
  tau : float;
  buffer : int option;
  gateway : Net.Discipline.kind;
  conns : conn_spec list;
  duration : float;
  warmup : float;
  sample_dt : float;
  validate : bool;
  faults : (fault_site * Faults.Spec.t) list;
  fault_seed : int;
}

let make ~name ?(num_switches = 2) ~tau ~buffer ?(gateway = Net.Discipline.Fifo)
    ~conns ?(duration = 600.) ?(warmup = 200.) ?(sample_dt = 0.5)
    ?(validate = false) ?(faults = []) ?(fault_seed = 1) () =
  if conns = [] then invalid_arg "Scenario.make: no connections";
  if duration <= warmup then invalid_arg "Scenario.make: duration <= warmup";
  if sample_dt <= 0. then invalid_arg "Scenario.make: sample_dt <= 0";
  if num_switches < 2 then invalid_arg "Scenario.make: fewer than 2 switches";
  List.iter
    (fun c ->
      let lo, hi = c.span in
      if lo < 0 || lo >= hi || hi >= num_switches then
        invalid_arg
          (Printf.sprintf "Scenario.make: span (%d, %d) outside a %d-switch \
                           chain" lo hi num_switches))
    conns;
  let sites = List.map (fun (site, _) -> fault_trunk site) faults in
  List.iter
    (fun (trunk, _) ->
      if trunk < 0 || trunk >= num_switches - 1 then
        invalid_arg
          (Printf.sprintf "Scenario.make: no trunk %d in a %d-switch chain"
             trunk num_switches))
    sites;
  if List.length (List.sort_uniq compare sites) <> List.length sites then
    invalid_arg "Scenario.make: duplicate fault site";
  { name; num_switches; tau; buffer; gateway; conns; duration; warmup;
    sample_dt; validate; faults; fault_seed }

let data_packet_size = 500

let pipe t =
  Engine.Units.pipe_size
    ~rate_bps:(Engine.Units.kbps 50.)
    ~delay:t.tau ~packet_bytes:data_packet_size

let data_tx _t =
  Engine.Units.transmission_time ~bytes:data_packet_size
    ~rate_bps:(Engine.Units.kbps 50.)

let stagger ~step specs =
  List.mapi
    (fun i spec ->
      { spec with start_time = spec.start_time +. (float_of_int i *. step) })
    specs
