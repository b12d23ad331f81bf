(** A complete experiment description: the topology (a chain of
    switches, by default the two-switch Figure-1 dumbbell), bottleneck
    parameters, the set of connections (with their path and direction),
    and the measurement window.

    Switch [i] of the chain carries host [i]; trunk [i] joins switches
    [i] and [i+1], and every trunk is a bottleneck with the scenario's
    [tau], [buffer] and [gateway].  A connection spans switches
    [(lo, hi)] (default [(0, 1)]): a [Forward] connection sources data
    on host [lo] and sinks it on host [hi], a [Reverse] one the other way
    round.  On the dumbbell, [Forward] therefore means Host-1 to Host-2.
    The paper's one-way configurations use only [Forward] connections;
    two-way configurations use both. *)

type direction = Forward | Reverse

type conn_spec = {
  dir : direction;
  cc : Tcp.Cc.spec;  (** congestion controller ({!Tcp.Cc} registry name) *)
  start_time : float;
  delayed_ack : bool;
  ack_size : int;  (** bytes; 0 for the zero-length-ACK system *)
  loss_detection : bool;
  maxwnd : int;  (** receiver-advertised window; paper default 1000 *)
  rto_params : Tcp.Rto.params;  (** timer behavior; default BSD 500 ms ticks *)
  pacing : float option;
      (** minimum spacing between data packets, s; [None] = nonpaced *)
  rtt_skew : float;  (** extra one-way latency for this sender's data, s *)
  flow_size : int option;  (** packets to transfer; [None] = infinite *)
  span : int * int;
      (** switches [(lo, hi)], [lo < hi], joined by the path; [dir] names
          the sending end *)
}

(** Connection with paper defaults (Tahoe, modified CA, immediate ACKs,
    50-byte ACKs, started at [start_time], default 0).  [?cc] picks any
    {!Tcp.Cc} registry entry and wins over the legacy [?algorithm]
    selector. *)
val conn :
  ?algorithm:Tcp.Cong.algorithm ->
  ?cc:Tcp.Cc.spec ->
  ?start_time:float ->
  ?delayed_ack:bool ->
  ?ack_size:int ->
  ?loss_detection:bool ->
  ?maxwnd:int ->
  ?rto_params:Tcp.Rto.params ->
  ?pacing:float option ->
  ?rtt_skew:float ->
  ?flow_size:int option ->
  ?span:int * int ->
  direction ->
  conn_spec

(** Fixed-window connection: no congestion control, no loss detection
    (used with infinite buffers, Figures 8-9). *)
val fixed_conn :
  ?start_time:float -> ?ack_size:int -> window:int -> direction -> conn_spec

(** Where a fault plan attaches.  [Trunk (i, Forward)] is trunk [i]'s
    right-going link (forward data, reverse ACKs), [Trunk (i, Reverse)]
    its left-going one.  [Fwd_bottleneck] and [Bwd_bottleneck] name the
    two sides of trunk 0, the dumbbell bottleneck. *)
type fault_site =
  | Fwd_bottleneck
  | Bwd_bottleneck
  | Trunk of int * direction

(** The trunk and side a site names. *)
val fault_trunk : fault_site -> int * direction

type t = {
  name : string;
  num_switches : int;  (** switches in the chain; default 2, the dumbbell *)
  tau : float;  (** bottleneck propagation delay, s *)
  buffer : int option;  (** bottleneck buffer, packets; [None] = infinite *)
  gateway : Net.Discipline.kind;  (** bottleneck queueing discipline *)
  conns : conn_spec list;
  duration : float;  (** total simulated time, s *)
  warmup : float;  (** measurements cover [warmup, duration) *)
  sample_dt : float;  (** resampling grid for correlation analyses, s *)
  validate : bool;
      (** run the {!Validate.Harness} invariant checkers alongside the
          simulation (default [false]; the [NETSIM_VALIDATE] environment
          variable forces it on) *)
  faults : (fault_site * Faults.Spec.t) list;
      (** fault plans to install on trunk links (at most one per link);
          default none *)
  fault_seed : int;
      (** seed for the fault RNG streams, independent of everything
          else in the scenario; default 1 *)
}

(** @raise Invalid_argument on no connections, an empty measurement
    window, [sample_dt <= 0], fewer than 2 switches, a connection span
    outside the chain, a fault on a trunk the chain does not have, or two
    faults on one link. *)
val make :
  name:string ->
  ?num_switches:int ->
  tau:float ->
  buffer:int option ->
  ?gateway:Net.Discipline.kind ->
  conns:conn_spec list ->
  ?duration:float ->
  ?warmup:float ->
  ?sample_dt:float ->
  ?validate:bool ->
  ?faults:(fault_site * Faults.Spec.t) list ->
  ?fault_seed:int ->
  unit ->
  t

(** Paper pipe size [P] for this scenario (packets per direction). *)
val pipe : t -> float

(** Bottleneck transmission time of a data packet (s). *)
val data_tx : t -> float

(** Stagger connection starts: spec [i] starts at [i * step] (plus its own
    [start_time]).  Avoids perfectly tied phases at t = 0. *)
val stagger : step:float -> conn_spec list -> conn_spec list
