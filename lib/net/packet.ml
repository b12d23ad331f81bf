type kind = Data | Ack

type t = {
  id : int;
  conn : int;
  kind : kind;
  seq : int;
  size : int;
  src : int;
  dst : int;
  born : float;
  retransmit : bool;
}

(* Sentinel for pooled slots (link transmitters, delivery pools, ring
   buffers) and the empty [Discipline.dequeue]: compared with (==), never
   offered to a link or counted anywhere. *)
let none =
  {
    id = -1;
    conn = -1;
    kind = Data;
    seq = -1;
    size = 0;
    src = -1;
    dst = -1;
    born = neg_infinity;
    retransmit = false;
  }

let kind_to_string = function Data -> "data" | Ack -> "ack"

let pp ppf p =
  Format.fprintf ppf "#%d conn=%d %s seq=%d %dB %d->%d" p.id p.conn
    (kind_to_string p.kind) p.seq p.size p.src p.dst

let is_data p = p.kind = Data
