(** Typed structured-trace events: the packet lifecycle through the
    network plus TCP state transitions.  Events are constructed only when
    a {!Tracer} sink is installed; the disabled path never sees them.

    Events reference live model objects (packets are recycled through
    free-lists), so they are only valid during the emitting hook call —
    anything that outlives the hook ({!Btrace} records, the {!Flight}
    ring) copies the fields it needs. *)

type t =
  | Inject of Net.Packet.t  (** packet entered the network at its source *)
  | Deliver of Net.Packet.t  (** packet handed to a transport endpoint *)
  | Enqueue of { link : Net.Link.t; pkt : Net.Packet.t; qlen : int }
  | Drop of { link : Net.Link.t; pkt : Net.Packet.t }
  | Depart of { link : Net.Link.t; pkt : Net.Packet.t; qlen : int }
      (** serialization finished; [qlen] is the post-departure occupancy *)
  | Fault of { link : Net.Link.t; label : string; pkt : Net.Packet.t }
  | Send of { conn : int; pkt : Net.Packet.t }  (** sender transmitted *)
  | Cwnd of { conn : int; cwnd : float; ssthresh : float }
  | Loss of { conn : int; reason : string }  (** ["timeout"] / ["dup_ack"] *)
  | Ack_tx of { conn : int; ackno : int; delayed : bool; dup : bool }
