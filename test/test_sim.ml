open Engine

let test_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:2. (note "c") : Sim.handle);
  ignore (Sim.schedule sim ~delay:1. (note "a") : Sim.handle);
  ignore (Sim.schedule sim ~delay:1.5 (note "b") : Sim.handle);
  Sim.run sim ~until:10.;
  Alcotest.(check (list string)) "execution order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "clock at horizon" 10. (Sim.now sim)

let test_same_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:1. (fun () -> log := i :: !log) : Sim.handle)
  done;
  Sim.run sim ~until:2.;
  Alcotest.(check (list int)) "same-instant FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1. (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Sim.pending h);
  Sim.cancel h;
  Alcotest.(check bool) "pending after cancel" false (Sim.pending h);
  Sim.run sim ~until:5.;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  (* double-cancel is a no-op *)
  Sim.cancel h

let test_nested_scheduling () =
  let sim = Sim.create () in
  let times = ref [] in
  let rec ping n () =
    times := Sim.now sim :: !times;
    if n > 0 then ignore (Sim.schedule sim ~delay:1. (ping (n - 1)) : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:1. (ping 3) : Sim.handle);
  Sim.run sim ~until:10.;
  Alcotest.(check (list (float 1e-9))) "cascade times" [ 1.; 2.; 3.; 4. ]
    (List.rev !times)

let test_run_until_stops () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.schedule sim ~delay:1. tick : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:1. tick : Sim.handle);
  Sim.run sim ~until:5.5;
  Alcotest.(check int) "events within horizon" 5 !count;
  Sim.run sim ~until:7.5;
  Alcotest.(check int) "resumes from horizon" 7 !count

let test_zero_delay () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:0. (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule sim ~delay:0. (fun () -> log := "inner" :: !log)
             : Sim.handle))
      : Sim.handle);
  Sim.run sim ~until:1.;
  Alcotest.(check (list string)) "zero delay ordering" [ "outer"; "inner" ]
    (List.rev !log)

(* The exact Invalid_argument messages are part of the interface: schedule
   and at (and run) each distinguish NaN from out-of-range and name the
   offending value.  Pinned so they cannot drift apart again. *)
let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay -1") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1.) (fun () -> ()) : Sim.handle))

let test_nan_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Sim.schedule: NaN delay")
    (fun () ->
      ignore (Sim.schedule sim ~delay:Float.nan (fun () -> ()) : Sim.handle));
  Alcotest.check_raises "NaN time" (Invalid_argument "Sim.at: NaN time")
    (fun () ->
      ignore (Sim.at sim ~time:Float.nan (fun () -> ()) : Sim.handle));
  Alcotest.check_raises "NaN horizon" (Invalid_argument "Sim.run: NaN horizon")
    (fun () -> Sim.run sim ~until:Float.nan)

let test_at_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:5. (fun () -> ()) : Sim.handle);
  Sim.run sim ~until:5.;
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Sim.at: time 1 is before current time 5") (fun () ->
      ignore (Sim.at sim ~time:1. (fun () -> ()) : Sim.handle))

let test_run_past_horizon_rejected () =
  let sim = Sim.create () in
  Sim.run sim ~until:5.;
  Alcotest.check_raises "past horizon rejected"
    (Invalid_argument "Sim.run: horizon 3 is before current time 5") (fun () ->
      Sim.run sim ~until:3.)

let test_run_horizon_semantics () =
  let sim = Sim.create () in
  let fired = ref false in
  (* An event exactly at the horizon runs, and the clock lands on it. *)
  ignore (Sim.schedule sim ~delay:7. (fun () -> fired := true) : Sim.handle);
  Sim.run sim ~until:7.;
  Alcotest.(check bool) "event at horizon fires" true !fired;
  Alcotest.(check (float 0.)) "clock is exactly the horizon" 7. (Sim.now sim);
  (* Re-running to the same horizon is a no-op. *)
  Sim.run sim ~until:7.;
  Alcotest.(check (float 0.)) "idempotent" 7. (Sim.now sim);
  (* With only future events, the clock still lands on the horizon. *)
  ignore (Sim.schedule sim ~delay:100. (fun () -> ()) : Sim.handle);
  Sim.run sim ~until:10.;
  Alcotest.(check (float 0.)) "horizon without events" 10. (Sim.now sim)

let test_events_run () =
  let sim = Sim.create () in
  for _ = 1 to 4 do
    ignore (Sim.schedule sim ~delay:1. (fun () -> ()) : Sim.handle)
  done;
  let h = Sim.schedule sim ~delay:1. (fun () -> ()) in
  Sim.cancel h;
  Sim.run_to_completion sim;
  Alcotest.(check int) "cancelled events not counted" 4 (Sim.events_run sim)

let test_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 3 do
    ignore (Sim.schedule sim ~delay:1. (fun () -> incr count) : Sim.handle)
  done;
  Alcotest.(check bool) "step runs one" true (Sim.step sim ~until:10.);
  Alcotest.(check int) "one event" 1 !count;
  Alcotest.(check bool) "step again" true (Sim.step sim ~until:10.);
  ignore (Sim.step sim ~until:10. : bool);
  Alcotest.(check bool) "exhausted" false (Sim.step sim ~until:10.)

let test_on_event_observer () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.on_event sim (fun time -> seen := time :: !seen);
  ignore (Sim.schedule sim ~delay:1. (fun () -> ()) : Sim.handle);
  let h = Sim.schedule sim ~delay:2. (fun () -> ()) in
  ignore (Sim.schedule sim ~delay:3. (fun () -> ()) : Sim.handle);
  Sim.cancel h;
  Sim.run sim ~until:10.;
  Alcotest.(check (list (float 1e-9)))
    "observer sees non-cancelled events in order" [ 1.; 3. ]
    (List.rev !seen)

(* Cancel semantics under random schedules: exactly the non-cancelled
   events fire, each once, and no handle stays pending after a drain. *)
let prop_cancel_semantics =
  QCheck.Test.make ~name:"cancel semantics under random schedules" ~count:200
    QCheck.(list (pair (float_bound_inclusive 50.) bool))
    (fun events ->
      let sim = Sim.create () in
      let fired = Array.make (List.length events) 0 in
      let handles =
        List.mapi
          (fun i (delay, _) ->
            Sim.schedule sim ~delay (fun () -> fired.(i) <- fired.(i) + 1))
          events
      in
      List.iteri
        (fun i (_, cancelled) ->
          if cancelled then Sim.cancel (List.nth handles i))
        events;
      Sim.run_to_completion sim;
      List.for_all2
        (fun h ((_, cancelled), count) ->
          (not (Sim.pending h)) && count = (if cancelled then 0 else 1))
        handles
        (List.combine events (Array.to_list fired)))

(* Observers fire in registration order (they used to run reversed,
   which broke any validate-then-trace hook pairing). *)
let test_observer_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.on_event sim (fun _ -> log := 1 :: !log);
  Sim.on_event sim (fun _ -> log := 2 :: !log);
  Sim.on_event sim (fun _ -> log := 3 :: !log);
  ignore (Sim.schedule sim ~delay:1. (fun () -> ()) : Sim.handle);
  Sim.run_to_completion sim;
  Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ] (List.rev !log)

(* A cancel-heavy workload must not accumulate dead handles until their
   scheduled times: compaction keeps the queue bounded even though every
   cancelled event lies 1000 s in the future. *)
let test_cancel_compaction () =
  let sim = Sim.create () in
  for _ = 1 to 10_000 do
    Sim.cancel (Sim.schedule sim ~delay:1000. (fun () -> ()))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "queue stays bounded (len %d)" (Sim.queue_length sim))
    true
    (Sim.queue_length sim <= 128);
  Sim.run_to_completion sim;
  Alcotest.(check int) "no cancelled event ran" 0 (Sim.events_run sim)

(* The compaction invariant under arbitrary cancel patterns: at any
   point the queue holds at most 2x the live events plus the compaction
   threshold. *)
let prop_cancel_bounded =
  QCheck.Test.make ~name:"cancel keeps queue length within 2*live + 64"
    ~count:200
    QCheck.(list bool)
    (fun cancels ->
      let sim = Sim.create () in
      let live = ref 0 in
      List.for_all
        (fun cancel ->
          let h = Sim.schedule sim ~delay:100. (fun () -> ()) in
          if cancel then Sim.cancel h else incr live;
          Sim.queue_length sim <= (2 * !live) + 64)
        cancels)

(* ------------------------------------------------------------------ *)
(* Reusable timers (Sim.Timer)                                         *)
(* ------------------------------------------------------------------ *)

let test_timer_basics () =
  let sim = Sim.create () in
  let fires = ref [] in
  let tm = Sim.Timer.create sim (fun () -> fires := Sim.now sim :: !fires) in
  Alcotest.(check bool) "fresh timer not pending" false (Sim.Timer.pending tm);
  Sim.Timer.set tm ~delay:2.;
  Alcotest.(check bool) "armed" true (Sim.Timer.pending tm);
  (* Re-arming moves the deadline: only the final setting fires. *)
  Sim.Timer.set tm ~delay:5.;
  Sim.run sim ~until:3.;
  Alcotest.(check (list (float 0.))) "old deadline gone" [] !fires;
  Sim.run sim ~until:10.;
  Alcotest.(check (list (float 1e-9))) "fires at re-armed time" [ 5. ] !fires;
  Alcotest.(check bool) "disarmed after firing" false (Sim.Timer.pending tm);
  (* The same timer is reusable after firing, and set_at takes an
     absolute time. *)
  Sim.Timer.set_at tm ~time:12.;
  Sim.Timer.cancel tm;
  Alcotest.(check bool) "cancel disarms" false (Sim.Timer.pending tm);
  Sim.Timer.cancel tm;  (* double-cancel is a no-op *)
  Sim.Timer.set tm ~delay:4.;
  Sim.run_to_completion sim;
  Alcotest.(check (list (float 1e-9))) "reused after cancel" [ 14.; 5. ] !fires

let test_timer_same_time_fifo () =
  (* A timer armed at the same instant as plain scheduled events keeps
     its insertion rank: arming consumes one sequence number exactly
     like Sim.schedule. *)
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:1. (note "a") : Sim.handle);
  let tm = Sim.Timer.create sim (note "b") in
  Sim.Timer.set tm ~delay:1.;
  ignore (Sim.schedule sim ~delay:1. (note "c") : Sim.handle);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "insertion order at a tie" [ "a"; "b"; "c" ]
    (List.rev !log)

(* The retransmission-timer workload: every "ACK" pushes the deadline
   out, so the timer is re-armed thousands of times but fires once.  The
   queue must stay at the live-event count (one ack chain + one timer) —
   re-arming in place must not leave debris behind. *)
let test_timer_rearm_storm () =
  let sim = Sim.create () in
  let fires = ref [] in
  let tm = Sim.Timer.create sim (fun () -> fires := Sim.now sim :: !fires) in
  let acks = 10_000 in
  let max_len = ref 0 in
  let rec ack n () =
    Sim.Timer.set tm ~delay:3.;
    max_len := max !max_len (Sim.queue_length sim);
    if n > 0 then
      ignore (Sim.schedule sim ~delay:0.001 (ack (n - 1)) : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:0.001 (ack (acks - 1)) : Sim.handle);
  Sim.run_to_completion sim;
  let last_ack_time = 0.001 *. float_of_int acks in
  Alcotest.(check (list (float 1e-6)))
    "single firing, 3s after the last re-arm"
    [ last_ack_time +. 3. ]
    !fires;
  Alcotest.(check bool)
    (Printf.sprintf "queue stayed at live size (max %d)" !max_len)
    true (!max_len <= 2);
  Alcotest.(check int) "acks + one timer firing" (acks + 1)
    (Sim.events_run sim)

let test_timer_set_action () =
  let sim = Sim.create () in
  let log = ref [] in
  let tm = Sim.Timer.create sim (fun () -> log := "old" :: !log) in
  Sim.Timer.set tm ~delay:1.;
  Sim.Timer.set_action tm (fun () -> log := "new" :: !log);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "replaced action fires" [ "new" ] !log

let test_timer_errors () =
  let sim = Sim.create () in
  let tm = Sim.Timer.create sim (fun () -> ()) in
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.Timer.set: NaN delay") (fun () ->
      Sim.Timer.set tm ~delay:Float.nan);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.Timer.set: negative delay -1") (fun () ->
      Sim.Timer.set tm ~delay:(-1.));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Sim.Timer.set_at: NaN time") (fun () ->
      Sim.Timer.set_at tm ~time:Float.nan);
  Sim.run sim ~until:5.;
  Alcotest.check_raises "past time"
    (Invalid_argument "Sim.Timer.set_at: time 1 is before current time 5")
    (fun () -> Sim.Timer.set_at tm ~time:1.)

(* Observational equivalence: a Timer driven by arbitrary set/cancel/
   advance interleavings behaves exactly like the closure-based
   cancel-then-reschedule pattern it replaces — same fire times, same
   order (including same-instant ties against other traffic), same
   pending answers.  Delays are drawn from a half-integer grid so that
   ties actually occur. *)
let prop_timer_equivalence =
  let n_timers = 4 in
  let op =
    QCheck.(
      map
        (fun (tag, i, steps) ->
          let d = float_of_int steps /. 2. in
          (tag mod 3, i mod n_timers, d))
        (triple (int_bound 2) (int_bound (n_timers - 1)) (int_bound 10)))
  in
  QCheck.Test.make ~name:"Timer.set/cancel == cancel+reschedule" ~count:300
    (QCheck.list op)
    (fun ops ->
      let simA = Sim.create () and simB = Sim.create () in
      let logA = ref [] and logB = ref [] in
      let timers =
        Array.init n_timers (fun i ->
            Sim.Timer.create simA (fun () ->
                logA := (i, Sim.now simA) :: !logA))
      in
      let href = Array.make n_timers None in
      List.iter
        (fun (tag, i, d) ->
          match tag with
          | 0 ->
            (* arm / re-arm *)
            Sim.Timer.set timers.(i) ~delay:d;
            (match href.(i) with Some h -> Sim.cancel h | None -> ());
            href.(i) <-
              Some
                (Sim.schedule simB ~delay:d (fun () ->
                     logB := (i, Sim.now simB) :: !logB))
          | 1 ->
            Sim.Timer.cancel timers.(i);
            (match href.(i) with Some h -> Sim.cancel h | None -> ())
          | _ ->
            (* advance both clocks together *)
            Sim.run simA ~until:(Sim.now simA +. d);
            Sim.run simB ~until:(Sim.now simB +. d))
        ops;
      let pending_agree =
        Array.to_list
          (Array.mapi
             (fun i tm ->
               Sim.Timer.pending tm
               = (match href.(i) with
                  | Some h -> Sim.pending h
                  | None -> false))
             timers)
        |> List.for_all Fun.id
      in
      Sim.run_to_completion simA;
      Sim.run_to_completion simB;
      pending_agree && !logA = !logB
      && Sim.events_run simA = Sim.events_run simB)

(* A fired one-shot gives its registry id back, and the next one-shot
   takes it; the old handle must stay dead — cancelling it later must
   not touch the new event that now holds the same id. *)
let test_cancel_fired_after_id_reuse () =
  let sim = Sim.create () in
  let log = ref [] in
  let first = Sim.schedule sim ~delay:1. (fun () -> log := "first" :: !log) in
  Sim.run sim ~until:1.;
  let second = Sim.schedule sim ~delay:1. (fun () -> log := "second" :: !log) in
  Sim.cancel first;
  Alcotest.(check bool) "fired handle not pending" false (Sim.pending first);
  Alcotest.(check bool) "new event still pending" true (Sim.pending second);
  Alcotest.(check int) "queue keeps the new event" 1 (Sim.queue_length sim);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "both fired once" [ "first"; "second" ]
    (List.rev !log)

(* An independent oracle for the heap: a reference scheduler kept as a
   list sorted by (time, insertion counter), sharing no code with Sim.
   Every arming — schedule, at, Timer.set, Timer.set_at, and each
   re-arm — takes the next counter value, as Sim's sequence numbers do.
   Random operations run against both; after every step the queue
   length, events run and every handle's pending state must agree, and
   at the end so must the fire logs.  Times sit on a half-integer grid
   so that ties occur; "chain" one-shots schedule a follow-up from
   inside their action, so ids are released and retaken mid-run; and
   cancels pick among all handles ever made, fired ones included. *)
module Ref_sched = struct
  type owner = Oneshot of int | Timer of int  (* handle or timer index *)
  type entry = { time : float; counter : int; owner : owner; chain : bool }

  type t = {
    mutable now : float;
    mutable counter : int;
    mutable queue : entry list;  (* sorted by (time, counter) *)
    mutable ran : int;
    mutable log : (owner * float) list;  (* newest first *)
    mutable handles : int;  (* one-shot handles made so far *)
  }

  let create () =
    { now = 0.; counter = 0; queue = []; ran = 0; log = []; handles = 0 }

  let before a b = a.time < b.time || (a.time = b.time && a.counter < b.counter)

  let rec insert e = function
    | [] -> [ e ]
    | x :: rest as l -> if before e x then e :: l else x :: insert e rest

  let add t ~time owner ~chain =
    let e = { time; counter = t.counter; owner; chain } in
    t.counter <- t.counter + 1;
    t.queue <- insert e t.queue

  let remove t owner =
    t.queue <- List.filter (fun e -> e.owner <> owner) t.queue
  let pending t owner = List.exists (fun e -> e.owner = owner) t.queue

  let oneshot t ~time ~chain =
    let h = t.handles in
    t.handles <- h + 1;
    add t ~time (Oneshot h) ~chain

  let set_timer t i ~time =
    remove t (Timer i);
    add t ~time (Timer i) ~chain:false

  let run t ~until =
    let rec go () =
      match t.queue with
      | e :: rest when e.time <= until ->
        t.queue <- rest;
        t.now <- e.time;
        t.ran <- t.ran + 1;
        t.log <- (e.owner, e.time) :: t.log;
        if e.chain then oneshot t ~time:(e.time +. 0.5) ~chain:false;
        go ()
      | _ -> ()
    in
    go ();
    t.now <- until
end

type heap_op =
  | Op_schedule of float * bool  (* delay, chain *)
  | Op_at of float
  | Op_timer_set of int * float
  | Op_timer_set_at of int * float
  | Op_cancel of int  (* picks a handle made so far, modulo their number *)
  | Op_timer_cancel of int
  | Op_run of float

let prop_heap_oracle =
  let n_timers = 3 in
  let half =
    QCheck.Gen.map (fun k -> float_of_int k /. 2.) (QCheck.Gen.int_bound 8)
  in
  let timer = QCheck.Gen.int_bound (n_timers - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun d c -> Op_schedule (d, c)) half bool);
          (2, map (fun d -> Op_at d) half);
          (3, map2 (fun i d -> Op_timer_set (i, d)) timer half);
          (2, map2 (fun i d -> Op_timer_set_at (i, d)) timer half);
          (3, map (fun j -> Op_cancel j) (int_bound 1000));
          (1, map (fun i -> Op_timer_cancel i) timer);
          (3, map (fun d -> Op_run d) half);
        ])
  in
  let print = function
    | Op_schedule (d, c) ->
      Printf.sprintf "schedule %g%s" d (if c then " chain" else "")
    | Op_at d -> Printf.sprintf "at now+%g" d
    | Op_timer_set (i, d) -> Printf.sprintf "timer%d.set %g" i d
    | Op_timer_set_at (i, d) -> Printf.sprintf "timer%d.set_at now+%g" i d
    | Op_cancel j -> Printf.sprintf "cancel #%d" j
    | Op_timer_cancel i -> Printf.sprintf "timer%d.cancel" i
    | Op_run d -> Printf.sprintf "run +%g" d
  in
  QCheck.Test.make ~name:"heap agrees with a sorted-list reference scheduler"
    ~count:500
    (QCheck.make ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (int_bound 80) op))
    (fun ops ->
      let sim = Sim.create () and r = Ref_sched.create () in
      let log = ref [] in
      let note owner () = log := (owner, Sim.now sim) :: !log in
      let handles = ref [||] in
      let add_handle h = handles := Array.append !handles [| h |] in
      (* The action of the next handle; a chained one schedules a plain
         follow-up half a second later. *)
      let rec action ~chain =
        let idx = Array.length !handles in
        fun () ->
          note (Ref_sched.Oneshot idx) ();
          if chain then
            add_handle
              (Sim.at sim ~time:(Sim.now sim +. 0.5) (action ~chain:false))
      in
      let timers =
        Array.init n_timers (fun i ->
            Sim.Timer.create sim (note (Ref_sched.Timer i)))
      in
      let agree () =
        Sim.queue_length sim = List.length r.queue
        && Sim.events_run sim = r.ran
        && Array.for_all Fun.id
             (Array.mapi
                (fun j h -> Sim.pending h = Ref_sched.pending r (Oneshot j))
                !handles)
        && Array.for_all Fun.id
             (Array.mapi
                (fun i tm ->
                  Sim.Timer.pending tm = Ref_sched.pending r (Timer i))
                timers)
      in
      let step = function
        | Op_schedule (d, chain) ->
          let time = Sim.now sim +. d in
          add_handle (Sim.schedule sim ~delay:d (action ~chain));
          Ref_sched.oneshot r ~time ~chain
        | Op_at d ->
          let time = Sim.now sim +. d in
          add_handle (Sim.at sim ~time (action ~chain:false));
          Ref_sched.oneshot r ~time ~chain:false
        | Op_timer_set (i, d) ->
          Sim.Timer.set timers.(i) ~delay:d;
          Ref_sched.set_timer r i ~time:(r.now +. d)
        | Op_timer_set_at (i, d) ->
          let time = Sim.now sim +. d in
          Sim.Timer.set_at timers.(i) ~time;
          Ref_sched.set_timer r i ~time
        | Op_cancel j ->
          let n = Array.length !handles in
          if n > 0 then begin
            Sim.cancel !handles.(j mod n);
            Ref_sched.remove r (Oneshot (j mod n))
          end
        | Op_timer_cancel i ->
          Sim.Timer.cancel timers.(i);
          Ref_sched.remove r (Timer i)
        | Op_run d ->
          let until = Sim.now sim +. d in
          Sim.run sim ~until;
          Ref_sched.run r ~until
      in
      List.for_all (fun op -> step op; agree ()) ops
      && begin
        Sim.run_to_completion sim;
        Ref_sched.run r ~until:infinity;
        agree () && !log = r.log
      end)

let suite =
  ( "sim",
    [
      Alcotest.test_case "schedule order" `Quick test_schedule_order;
      Alcotest.test_case "same-time FIFO" `Quick test_same_time_order;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "run until horizon" `Quick test_run_until_stops;
      Alcotest.test_case "zero delay" `Quick test_zero_delay;
      Alcotest.test_case "negative delay rejected" `Quick
        test_negative_delay_rejected;
      Alcotest.test_case "NaN rejected with distinct messages" `Quick
        test_nan_rejected;
      Alcotest.test_case "at past rejected" `Quick test_at_past_rejected;
      Alcotest.test_case "run past horizon rejected" `Quick
        test_run_past_horizon_rejected;
      Alcotest.test_case "run horizon semantics" `Quick
        test_run_horizon_semantics;
      Alcotest.test_case "on_event observer" `Quick test_on_event_observer;
      Alcotest.test_case "events_run counts" `Quick test_events_run;
      Alcotest.test_case "step" `Quick test_step;
      Alcotest.test_case "observer order" `Quick test_observer_order;
      Alcotest.test_case "cancel compaction" `Quick test_cancel_compaction;
      Alcotest.test_case "timer basics" `Quick test_timer_basics;
      Alcotest.test_case "timer same-time FIFO" `Quick
        test_timer_same_time_fifo;
      Alcotest.test_case "timer re-arm storm" `Quick test_timer_rearm_storm;
      Alcotest.test_case "timer set_action" `Quick test_timer_set_action;
      Alcotest.test_case "timer error messages" `Quick test_timer_errors;
      QCheck_alcotest.to_alcotest prop_cancel_semantics;
      QCheck_alcotest.to_alcotest prop_cancel_bounded;
      QCheck_alcotest.to_alcotest prop_timer_equivalence;
      Alcotest.test_case "cancel fired one-shot after id reuse" `Quick
        test_cancel_fired_after_id_reuse;
      QCheck_alcotest.to_alcotest prop_heap_oracle;
    ] )
