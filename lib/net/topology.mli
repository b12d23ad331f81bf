(** Topology builders for the paper's network configurations (§2.2).

    Defaults follow the paper: bottleneck 50 Kbps with propagation delay
    [tau]; host links 10 Mbps with 0.1 ms propagation; host processing
    0.1 ms per packet; bottleneck buffers of [buffer] packets per outgoing
    port ([None] = infinite); host-side and switch-to-host buffers are
    infinite (they never congest). *)

type params = {
  bottleneck_bw : float;  (** bits/s; paper: 50 Kbps *)
  tau : float;  (** bottleneck propagation delay, s *)
  host_bw : float;  (** bits/s; paper: 10 Mbps *)
  host_delay : float;  (** host-link propagation, s; paper: 0.1 ms *)
  proc_delay : float;  (** per-packet host processing, s; paper: 0.1 ms *)
  buffer : int option;  (** bottleneck buffer, packets *)
  gateway : Discipline.kind;  (** bottleneck queueing discipline *)
}

(** Paper defaults with the given bottleneck delay and buffer; [gateway]
    defaults to drop-tail FIFO (the paper's switches). *)
val params :
  ?gateway:Discipline.kind -> tau:float -> buffer:int option -> unit -> params

(** The Figure-1 dumbbell: Host-1 — Switch-1 — Switch-2 — Host-2. *)
type dumbbell = {
  net : Network.t;
  host1 : int;
  host2 : int;
  switch1 : int;
  switch2 : int;
  fwd : Link.t;  (** bottleneck Switch-1 -> Switch-2 *)
  bwd : Link.t;  (** bottleneck Switch-2 -> Switch-1 *)
}

(** A chain of [num_switches] switches, one host per switch, every
    inter-switch link a bottleneck with [params]' characteristics.  The
    dumbbell is the two-switch chain; the §5 configuration has four. *)
type chain = {
  cnet : Network.t;
  hosts : int array;  (** hosts.(i) hangs off switches.(i) *)
  switches : int array;
  trunks : (Link.t * Link.t) array;
      (** trunks.(i) joins switches i and i+1: (right-going, left-going) *)
}

(** Build the chain and install routes.  Nodes are created switches
    first (["sw1"], ["sw2"], ...), then trunks left to right, then one
    host per switch (["host1"], ...).
    @raise Invalid_argument if [num_switches < 2]. *)
val chain : Engine.Sim.t -> params -> num_switches:int -> chain

(** Trunk 0 seen as a dumbbell: switches 0 and 1, their hosts, and the
    trunk's right-going ([fwd]) and left-going ([bwd]) links. *)
val dumbbell_of_chain : chain -> dumbbell

(** The Figure-1 dumbbell: trunk 0 of a two-switch chain. *)
val dumbbell : Engine.Sim.t -> params -> dumbbell
