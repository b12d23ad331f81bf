type kind = Fifo | Random_drop of { seed : int } | Fair_queue

let kind_to_string = function
  | Fifo -> "fifo"
  | Random_drop _ -> "random-drop"
  | Fair_queue -> "fair-queue"

type outcome = Accepted | Rejected | Evicted of Packet.t

(* FIFO storage for the single-queue disciplines: a ring buffer whose
   capacity doubles when full.  Unlike [Queue.t] it allocates no cell per
   packet; a vacated slot is reset to [Packet.none] so a departed packet
   is not kept alive by the buffer. *)
type ring = {
  mutable buf : Packet.t array;  (* length is a power of two *)
  mutable head : int;
  mutable len : int;
}

let ring_create () = { buf = Array.make 16 Packet.none; head = 0; len = 0 }
let[@inline] ring_slot r i = (r.head + i) land (Array.length r.buf - 1)

let ring_push r p =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (2 * cap) Packet.none in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.(ring_slot r i)
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.(ring_slot r r.len) <- p;
  r.len <- r.len + 1

let ring_take r =
  if r.len = 0 then Packet.none
  else begin
    let p = r.buf.(r.head) in
    r.buf.(r.head) <- Packet.none;
    r.head <- ring_slot r 1;
    r.len <- r.len - 1;
    p
  end

(* Remove the packet at position [idx] (0 = head), closing the gap by
   shifting the packets behind it forward: O(n), order kept. *)
let ring_remove_at r idx =
  if idx < 0 || idx >= r.len then invalid_arg "Discipline.remove_at";
  let victim = r.buf.(ring_slot r idx) in
  for i = idx to r.len - 2 do
    r.buf.(ring_slot r i) <- r.buf.(ring_slot r (i + 1))
  done;
  r.buf.(ring_slot r (r.len - 1)) <- Packet.none;
  r.len <- r.len - 1;
  victim

let ring_to_list r = List.init r.len (fun i -> r.buf.(ring_slot r i))

type state =
  | Single of ring * Engine.Rng.t option
      (* Fifo when rng is None, Random_drop otherwise *)
  | Classes of {
      queues : (int, Packet.t Queue.t) Hashtbl.t;
      round : int Queue.t;  (* classes with packets, in service order *)
      mutable stored : int;
    }

type t = { kind : kind; capacity : int option; state : state }

let create kind ~capacity =
  (match capacity with
   | Some c when c <= 0 ->
     invalid_arg "Discipline.create: capacity must be positive"
   | _ -> ());
  let state =
    match kind with
    | Fifo -> Single (ring_create (), None)
    | Random_drop { seed } ->
      Single (ring_create (), Some (Engine.Rng.create ~seed))
    | Fair_queue ->
      Classes { queues = Hashtbl.create 16; round = Queue.create (); stored = 0 }
  in
  { kind; capacity; state }

let kind t = t.kind
let capacity t = t.capacity

let length t =
  match t.state with
  | Single (r, _) -> r.len
  | Classes c -> c.stored

let is_empty t = length t = 0

let full t ~in_service =
  match t.capacity with
  | None -> false
  | Some c -> length t + in_service >= c

(* Remove the element at position [idx] from a queue (O(n)). *)
let remove_at queue idx =
  let keep = Queue.create () in
  let victim = ref None in
  let i = ref 0 in
  Queue.iter
    (fun p ->
      if !i = idx then victim := Some p else Queue.push p keep;
      incr i)
    queue;
  Queue.clear queue;
  Queue.transfer keep queue;
  match !victim with Some p -> p | None -> invalid_arg "Discipline.remove_at"

(* Drop the tail packet of the longest per-connection queue. *)
let evict_from_longest (c : (int, Packet.t Queue.t) Hashtbl.t) =
  let longest = ref None in
  Hashtbl.iter
    (fun conn q ->
      match !longest with
      | Some (_, best) when Queue.length best >= Queue.length q -> ()
      | _ -> if Queue.length q > 0 then longest := Some (conn, q))
    c;
  match !longest with
  | None -> None
  | Some (_conn, q) ->
    let victim = remove_at q (Queue.length q - 1) in
    Some victim

let queue_mem x q = Queue.fold (fun acc y -> acc || y = x) false q

(* A class joins the round-robin ring when it holds packets.  Evictions can
   leave a stale ring entry for an emptied class; dequeue skips those, and
   the membership check here prevents duplicates when the class refills. *)
let ring_add round conn q =
  if Queue.is_empty q && not (queue_mem conn round) then Queue.push conn round

let class_queue c conn =
  match Hashtbl.find_opt c conn with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add c conn q;
    q

let enqueue t p ~in_service =
  match t.state with
  | Single (r, rng) ->
    if not (full t ~in_service) then begin
      ring_push r p;
      Accepted
    end
    else begin
      match rng with
      | None -> Rejected  (* drop-tail *)
      | Some rng ->
        (* Random Drop: victim uniform over queued packets + the arrival. *)
        let n = r.len in
        let victim_idx = Engine.Rng.int rng ~bound:(n + 1) in
        if victim_idx = n then Rejected
        else begin
          let victim = ring_remove_at r victim_idx in
          ring_push r p;
          Evicted victim
        end
    end
  | Classes c ->
    let q = class_queue c.queues p.Packet.conn in
    if not (full t ~in_service) then begin
      ring_add c.round p.Packet.conn q;
      Queue.push p q;
      c.stored <- c.stored + 1;
      Accepted
    end
    else begin
      (* Fair queueing drop policy: penalize the connection using the most
         buffer.  If the arrival's own class is (one of) the longest, the
         arrival is the natural victim. *)
      let arriving_len = Queue.length q in
      let is_longest =
        Hashtbl.fold
          (fun _ other acc -> acc && Queue.length other <= arriving_len)
          c.queues true
      in
      if is_longest then Rejected
      else
        match evict_from_longest c.queues with
        | None -> Rejected
        | Some victim ->
          c.stored <- c.stored - 1;
          ring_add c.round p.Packet.conn q;
          Queue.push p q;
          c.stored <- c.stored + 1;
          Evicted victim
    end

let rec dequeue t =
  match t.state with
  | Single (r, _) -> ring_take r
  | Classes c ->
    (match Queue.take_opt c.round with
     | None -> Packet.none
     | Some conn ->
       (match Hashtbl.find_opt c.queues conn with
        | None -> dequeue t
        | Some q ->
          (match Queue.take_opt q with
           | None -> dequeue t  (* class emptied by an eviction *)
           | Some p ->
             c.stored <- c.stored - 1;
             if not (Queue.is_empty q) then Queue.push conn c.round;
             p)))

let contents t =
  match t.state with
  | Single (r, _) -> ring_to_list r
  | Classes c ->
    (* Round order, then each class front-to-back. *)
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    Queue.iter
      (fun conn ->
        if not (Hashtbl.mem seen conn) then begin
          Hashtbl.add seen conn ();
          match Hashtbl.find_opt c.queues conn with
          | Some q -> Queue.iter (fun p -> acc := p :: !acc) q
          | None -> ()
        end)
      c.round;
    List.rev !acc
