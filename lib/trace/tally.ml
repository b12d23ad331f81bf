let epoch_gap = 5.

(* Resample grid points are [t0 + dt*k] for [k < grid_points], the
   arithmetic of [Series.resample]. *)
let grid_points ~t0 ~t1 ~dt =
  if t1 <= t0 then 0 else int_of_float (ceil (((t1 -. t0) /. dt) -. 1e-9))

(* A resample grid of queue lengths.  Lengths are integers, nearly
   always below 256, so a point takes [width] bytes (1, 2 or 8; widened
   when a length does not fit) and the buffer doubles as points arrive:
   memory follows the simulated time actually run, not the horizon. *)
type grid = { mutable bytes : Bytes.t; mutable width : int; mutable len : int }

let get_raw b width i =
  match width with
  | 1 -> Bytes.get_uint8 b i
  | 2 -> Bytes.get_uint16_le b (2 * i)
  | _ -> Int64.to_int (Bytes.get_int64_le b (8 * i))

let set_raw b width i v =
  match width with
  | 1 -> Bytes.set_uint8 b i v
  | 2 -> Bytes.set_uint16_le b (2 * i) v
  | _ -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)

let width_of v = if v < 0x100 then 1 else if v < 0x10000 then 2 else 8

let push g v =
  let width = max g.width (width_of v) in
  if width > g.width || (g.len + 1) * width > Bytes.length g.bytes then begin
    let b = Bytes.create (max 64 (2 * (g.len + 1)) * width) in
    for i = 0 to g.len - 1 do
      set_raw b width i (get_raw g.bytes g.width i)
    done;
    g.bytes <- b;
    g.width <- width
  end;
  set_raw g.bytes g.width g.len v;
  g.len <- g.len + 1

let grid_length g = g.len

let grid_get g i =
  if i < 0 || i >= g.len then invalid_arg "Tally.grid_get: index out of bounds";
  float_of_int (get_raw g.bytes g.width i)

(* One trunk-0 queue.  Lengths are kept as ints (immediate, so the
   per-sample updates allocate nothing) and compared as the batch code
   compares their exact float images. *)
type queue = {
  mutable cur : int;  (* the last recorded length *)
  mutable carried : int;  (* the last length recorded at or before t0 *)
  mutable peak : int;  (* the maximum recorded after t0; -1: none *)
  grid : grid;
  points : int;  (* grid points up to the horizon *)
}

(* A grid point takes the last sample at or before it, so a sample at
   [time] settles every pending point strictly before [time]. *)
let sample q ~t0 ~dt time qlen =
  let g = q.grid in
  while g.len < q.points && t0 +. (dt *. float_of_int g.len) < time do
    push g q.cur
  done;
  q.cur <- qlen;
  if time <= t0 then q.carried <- qlen else if qlen > q.peak then q.peak <- qlen

let queue_max q = float_of_int (if q.peak > q.carried then q.peak else q.carried)

let queue_grid q ~n =
  let g = q.grid in
  while g.len < n do
    push g q.cur
  done;
  g.len <- n;
  g

(* The epoch state machine of [Analysis.Epochs.detect]: a drop more
   than [epoch_gap] after the previous one closes the open epoch. *)
type epochs = {
  count : int;  (* drops in the window *)
  closed : int;
  singles : int;  (* closed epochs with one losing connection *)
  open_drops : int;  (* 0: no open epoch *)
  open_conn : int;
  open_single : bool;
  last : float;
}

let no_epochs =
  { count = 0; closed = 0; singles = 0; open_drops = 0; open_conn = 0;
    open_single = true; last = neg_infinity }

let close e =
  if e.open_drops = 0 then e
  else
    { e with closed = e.closed + 1;
             singles = (if e.open_single then e.singles + 1 else e.singles);
             open_drops = 0 }

let add_drop e time conn =
  if e.open_drops > 0 && time -. e.last <= epoch_gap then
    { e with count = e.count + 1; open_drops = e.open_drops + 1;
             open_single = e.open_single && conn = e.open_conn; last = time }
  else
    { (close e) with count = e.count + 1; open_drops = 1; open_conn = conn;
                     open_single = true; last = time }

(* Drops are rare next to enqueues and departures, so this part keeps
   immutable states and swaps pointers. *)
type drops = {
  mutable now : epochs;
  mutable before : epochs;  (* [now] before the latest instant *)
  mutable instant : float;
}

(* Packet ids are consecutive ints, so they are their own hash: the
   table skips the C [caml_hash] call of the polymorphic one on every
   trunk ACK.  ([Int.hash] would still call it, and needs OCaml 5.1.) *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

(* ACK sojourns on one link.  Only ACKs enter the table, so it holds
   at most the ACKs in the buffer. *)
type sojourn = {
  entered : float Ids.t;  (* ACK id -> enqueue time *)
  sums : float array;  (* 0: sum; 1: sum before the latest instant; 2: latest instant *)
  mutable acks : int;
  mutable acks_before : int;
}

type t = {
  t0 : float;
  dt : float;
  links : Net.Link.t list;
  q1 : queue;
  q2 : queue;
  drops : drops;
  soj_fwd : sojourn;
  soj_bwd : sojourn;
}

let is_ack (p : Net.Packet.t) = p.kind = Net.Packet.Ack

let depart soj ~t0 time id =
  match Ids.find soj.entered id with
  | exception Not_found -> ()
  | entered ->
    Ids.remove soj.entered id;
    if time >= t0 then begin
      let s = soj.sums in
      if time > s.(2) then begin
        s.(1) <- s.(0);
        soj.acks_before <- soj.acks;
        s.(2) <- time
      end;
      s.(0) <- s.(0) +. (time -. entered);
      soj.acks <- soj.acks + 1
    end

let watch_trunk link q soj ~t0 ~dt =
  Net.Link.on_enqueue link (fun time p qlen ->
      if is_ack p then Ids.replace soj.entered p.id time;
      sample q ~t0 ~dt time qlen);
  Net.Link.on_depart link (fun time p qlen ->
      if is_ack p then depart soj ~t0 time p.id;
      sample q ~t0 ~dt time qlen);
  (* Only an outage flush changes the length through a drop; every other
     drop (rejection, eviction, ingress fault) leaves it as recorded. *)
  Net.Link.on_drop link (fun time p ->
      (* A random-drop or FQ eviction can remove a queued ACK. *)
      if is_ack p then Ids.remove soj.entered p.id;
      let qlen = Net.Link.queue_length link in
      if qlen <> q.cur then sample q ~t0 ~dt time qlen)

let attach ~links ~fwd ~bwd ~t0 ~horizon ~dt =
  let points = grid_points ~t0 ~t1:horizon ~dt in
  let queue link =
    let v = Net.Link.queue_length link in
    { cur = v; carried = v; peak = -1;
      grid = { bytes = Bytes.empty; width = 1; len = 0 }; points }
  in
  let sojourn () =
    { entered = Ids.create 64; sums = [| 0.; 0.; neg_infinity |];
      acks = 0; acks_before = 0 }
  in
  let t =
    { t0; dt; links; q1 = queue fwd; q2 = queue bwd;
      drops = { now = no_epochs; before = no_epochs; instant = neg_infinity };
      soj_fwd = sojourn (); soj_bwd = sojourn () }
  in
  watch_trunk fwd t.q1 t.soj_fwd ~t0 ~dt;
  watch_trunk bwd t.q2 t.soj_bwd ~t0 ~dt;
  let d = t.drops in
  List.iter
    (fun link ->
      Net.Link.on_drop link (fun time (p : Net.Packet.t) ->
          if time >= t0 then begin
            if time > d.instant then begin
              d.before <- d.now;
              d.instant <- time
            end;
            d.now <- add_drop d.now time p.conn
          end))
    links;
  t

type summary = {
  q1_max : float;
  q2_max : float;
  q1_grid : grid;
  q2_grid : grid;
  drops_window : int;
  drops_total : int;
  epochs : int;
  single_losers : int;
  ack_sojourn_fwd : float;
  acks_fwd : int;
  ack_sojourn_bwd : float;
  acks_bwd : int;
}

let finish t ~t1 =
  let n = grid_points ~t0:t.t0 ~t1 ~dt:t.dt in
  if n > t.q1.points then
    invalid_arg "Tally.finish: window end past the horizon";
  let e = close (if t.drops.instant >= t1 then t.drops.before else t.drops.now) in
  let window soj =
    if soj.sums.(2) >= t1 then (soj.sums.(1), soj.acks_before)
    else (soj.sums.(0), soj.acks)
  in
  let ack_sojourn_fwd, acks_fwd = window t.soj_fwd in
  let ack_sojourn_bwd, acks_bwd = window t.soj_bwd in
  {
    q1_max = queue_max t.q1;
    q2_max = queue_max t.q2;
    q1_grid = queue_grid t.q1 ~n;
    q2_grid = queue_grid t.q2 ~n;
    drops_window = e.count;
    drops_total =
      List.fold_left (fun acc l -> acc + Net.Link.total_drops l) 0 t.links;
    epochs = e.closed;
    single_losers = e.singles;
    ack_sojourn_fwd;
    acks_fwd;
    ack_sojourn_bwd;
    acks_bwd;
  }

(* The arithmetic of [Analysis.Epochs.mean_drops] and
   [single_loser_fraction]. *)
let per_epoch s n =
  if s.epochs = 0 then None
  else Some (float_of_int n /. float_of_int s.epochs)

let mean_drops_per_epoch s = per_epoch s s.drops_window
let single_loser_fraction s = per_epoch s s.single_losers

(* The arithmetic of [Sojourn_trace.effective_pipe_packets]. *)
let effective_pipe s ~data_tx =
  if data_tx <= 0. then invalid_arg "Tally.effective_pipe: data_tx must be positive";
  let pipe total acks =
    if acks = 0 then None else Some (total /. float_of_int acks /. data_tx)
  in
  match (pipe s.ack_sojourn_fwd s.acks_fwd, pipe s.ack_sojourn_bwd s.acks_bwd) with
  | Some a, Some b -> Some (Float.max a b)
  | (Some _ as x), None | None, (Some _ as x) -> x
  | None, None -> None
