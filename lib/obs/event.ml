type t =
  | Inject of Net.Packet.t
  | Deliver of Net.Packet.t
  | Enqueue of { link : Net.Link.t; pkt : Net.Packet.t; qlen : int }
  | Drop of { link : Net.Link.t; pkt : Net.Packet.t }
  | Depart of { link : Net.Link.t; pkt : Net.Packet.t; qlen : int }
  | Fault of { link : Net.Link.t; label : string; pkt : Net.Packet.t }
  | Send of { conn : int; pkt : Net.Packet.t }
  | Cwnd of { conn : int; cwnd : float; ssthresh : float }
  | Loss of { conn : int; reason : string }
  | Ack_tx of { conn : int; ackno : int; delayed : bool; dup : bool }
