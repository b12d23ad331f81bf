(* The benchmark's own arithmetic: spans and self time, sample
   statistics, ladder subtraction, output digests and the failure tally.
   Pure code (no clock, no I/O) so the test suite can pin every rule. *)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int option;
  run : int;  (** identifier shared by every span of one run *)
  t0 : float;
  t1 : float;
}

(* Spans stay in memory until the benchmark ends.  [stack] is the chain
   of open spans in the recording thread; spans timed elsewhere (worker
   domains or processes) are added with an explicit parent. *)
type recorder = {
  clock : unit -> float;
  run : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;
}

let recorder ?(run = 0) ~clock () = { clock; run; next_id = 0; stack = []; spans = [] }

let fresh_id r =
  r.next_id <- r.next_id + 1;
  r.next_id

let current r = match r.stack with id :: _ -> Some id | [] -> None

let add r ~name ?parent ~t0 ~t1 () =
  let id = fresh_id r in
  let parent = match parent with Some _ -> parent | None -> current r in
  r.spans <- { id; name; parent; run = r.run; t0; t1 } :: r.spans;
  id

let with_span r name f =
  let id = fresh_id r in
  let parent = current r in
  let t0 = r.clock () in
  r.stack <- id :: r.stack;
  Fun.protect
    ~finally:(fun () ->
      r.stack <- List.tl r.stack;
      r.spans <- { id; name; parent; run = r.run; t0; t1 = r.clock () }
                 :: r.spans)
    f

let spans r = List.rev r.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time: the span's duration minus the part of its interval that
   its child spans cover (children running in parallel count once). *)
let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.t0, c.t1) else None)
      all
  in
  (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 children

(* Per-name totals, in first-appearance order: (name, count, total s,
   self s). *)
let by_name all =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = self_time all s in
      match Hashtbl.find_opt tbl s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name (1, s.t1 -. s.t0, self)
      | Some (n, tot, sf) ->
        Hashtbl.replace tbl s.name (n + 1, tot +. (s.t1 -. s.t0), sf +. self))
    all;
  List.rev_map
    (fun name ->
      let n, tot, sf = Hashtbl.find tbl name in
      (name, n, tot, sf))
    !order

let span_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"parent\":%s,\"run\":%d,\"start\":%.6f,\"end\":%.6f}"
    s.id s.name
    (match s.parent with Some p -> string_of_int p | None -> "null")
    s.run s.t0 s.t1

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  The rank is rounded with a small
   tolerance so that binary rounding of [p] (99.9 is not exact) never
   moves it up by one. *)
let percentile xs p =
  match sorted xs with
  | [] -> invalid_arg "Perfstats.percentile: no samples"
  | s ->
    let n = List.length s in
    let rank = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
    List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Perfstats.median: no samples"
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* The highest of the usual report percentiles that still leaves at
   least ten samples beyond it; [None] when even the median would not. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10. -. 1e-6)
    [ 99.9; 99.; 90.; 50. ]

(* ------------------------------------------------------------------ *)
(* Ladder                                                              *)
(* ------------------------------------------------------------------ *)

(* One ladder rung: a run with a fixed set of layers switched on. *)
type rung = { events : int; seconds : float; minor_words : float }

let ns_per_event r = r.seconds *. 1e9 /. float_of_int r.events
let words_per_event r = r.minor_words /. float_of_int r.events

(* A layer's marginal cost per event: the rung with the layer on minus
   the rung below it, as (ns/event, words/event). *)
let marginal ~upper ~lower =
  ( ns_per_event upper -. ns_per_event lower,
    words_per_event upper -. words_per_event lower )

(* Heap growth per simulated second between two horizons. *)
let slope ~x0 ~y0 ~x1 ~y1 = (y1 -. y0) /. (x1 -. x0)

(* ------------------------------------------------------------------ *)
(* Correctness tally                                                   *)
(* ------------------------------------------------------------------ *)

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }

let digest s = Digest.to_hex (Digest.string s)

let digest_check ~what ~expected output =
  let got = digest output in
  check what (got = expected)
    (if got = expected then got
     else Printf.sprintf "digest %s, reference %s" got expected)

(* An operation fails when any of its checks fails. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t checks =
  t.attempted <- t.attempted + 1;
  if not (List.for_all (fun c -> c.ok) checks) then t.failed <- t.failed + 1

let fail_ratio t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted
