(* The scheduler is an *indexed* binary min-heap over parallel flat
   arrays:

     times : float array     primary key (unboxed)
     seqs  : int array       tie-break key (insertion counter)
     ids   : int array       payloads: the id of the timer in the slot

   and a registry [timers : timer array] mapping an id back to its
   timer, which records its own heap index ([timers.(ids.(i)).pos = i]
   always).  Every scheduled obligation — a one-shot closure from
   [schedule]/[at] or a reusable [Timer] — is such a timer, so cancel
   and re-arm are O(log n) in-place operations that produce no garbage.

   The heap holds ids rather than the timers themselves because OCaml 5
   pays a write barrier ([caml_modify]) for every pointer stored into a
   block of the major heap, and the heap arrays of a long run live
   there: a sift level that moved timer pointers would pay two barriers,
   each several times the cost of an int store.  Moving ids, times and
   seqs stores only ints and floats.  The registry is written only when
   an id changes hands: a persistent [Timer] takes an id at its first
   arming and keeps it; a one-shot takes one when scheduled and gives it
   back when it fires or is cancelled, and released ids are reused, so
   the registry is as large as the peak number of timers that hold one.

   Arming takes a fresh sequence number at the call site, and re-arming
   an armed timer takes one too, exactly as cancel+schedule would, so
   (time, seq) delivery order — and with it every golden trace — does
   not depend on any of this.  Cancelled timers leave the heap
   immediately: [queue_length] is the exact live event count.

   The clock lives in a 1-element float array rather than a mutable
   float field: a float field of a mixed record is boxed, so assigning
   it on every event would allocate; a flat float array slot does not. *)

type t = {
  clock : float array; (* 1 cell *)
  mutable executed : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable ids : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable observers : (float -> unit) list;  (* in registration order *)
  mutable timers : timer array;  (* id -> timer; [sentinel] when unused *)
  mutable issued : int;  (* ids handed out so far: [timers.(0 .. issued-1)] *)
  mutable free_ids : int array;  (* stack of released one-shot ids *)
  mutable n_free : int;
  sentinel : timer;
      (* fills released registry slots so a fired one-shot (and the
         closure it carries) is collectable immediately *)
}

and timer = {
  owner : t;
  mutable action : unit -> unit;
  mutable pos : int;  (* index into the heap arrays, or -1 when disarmed *)
  mutable id : int;  (* registry id, or -1 while the timer holds none *)
  oneshot : bool;  (* gives its id back when it fires or is cancelled *)
}

type handle = timer

let nop () = ()

let create () =
  let rec t =
    {
      clock = [| 0. |];
      executed = 0;
      times = [||];
      seqs = [||];
      ids = [||];
      size = 0;
      next_seq = 0;
      observers = [];
      timers = [||];
      issued = 0;
      free_ids = [||];
      n_free = 0;
      sentinel;
    }
  and sentinel =
    { owner = t; action = nop; pos = -1; id = -1; oneshot = false }
  in
  t

let[@inline] now t = t.clock.(0)
let events_run t = t.executed
let queue_length t = t.size

(* Registration is rare and iteration is the hot path, so keep the list
   in registration order (append) rather than reversing on every event:
   validate/trace hooks rely on running in install order. *)
let on_event t f = t.observers <- t.observers @ [ f ]

(* ------------------------------------------------------------------ *)
(* Timer registry                                                      *)
(* ------------------------------------------------------------------ *)

let initial_capacity = 64

let[@inline] next_capacity cap = if cap = 0 then initial_capacity else 2 * cap

(* Give [tm] an id: a released one if there is one, else a fresh one. *)
let acquire t tm =
  let id =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free_ids.(t.n_free)
    end
    else begin
      let id = t.issued in
      if id = Array.length t.timers then begin
        let timers = Array.make (next_capacity id) t.sentinel in
        Array.blit t.timers 0 timers 0 id;
        t.timers <- timers
      end;
      t.issued <- id + 1;
      id
    end
  in
  t.timers.(id) <- tm;
  tm.id <- id

(* A one-shot's id returns to the free stack once the event has fired or
   been cancelled; its handle keeps [pos = -1], so a late [cancel] on it
   is a no-op even after another one-shot has taken the id. *)
let release t tm =
  let id = tm.id in
  tm.id <- -1;
  t.timers.(id) <- t.sentinel;
  if t.n_free = Array.length t.free_ids then begin
    let free = Array.make (next_capacity t.n_free) 0 in
    Array.blit t.free_ids 0 free 0 t.n_free;
    t.free_ids <- free
  end;
  t.free_ids.(t.n_free) <- id;
  t.n_free <- t.n_free + 1

(* ------------------------------------------------------------------ *)
(* Indexed heap plumbing                                               *)
(* ------------------------------------------------------------------ *)

let grow t =
  let cap = Array.length t.ids in
  if t.size = cap then begin
    let ncap = next_capacity cap in
    let times = Array.make ncap 0. in
    let seqs = Array.make ncap 0 in
    let ids = Array.make ncap 0 in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.ids 0 ids 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.ids <- ids
  end

let[@inline] entry_before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Put entry (time, seq, id) into slot [i] and tell its timer. *)
let[@inline] fill t i time seq id =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.ids.(i) <- id;
  t.timers.(id).pos <- i

(* The sifts move a hole rather than swapping: the entry that started at
   [i] is lifted out, the entries it passes shift one level, and it is
   written once where it stops.  Keys are read into locals, so nothing
   is boxed. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs in
  let time = times.(i) and seq = seqs.(i) and id = t.ids.(i) in
  let hole = ref i in
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let tp = times.(parent) in
    if time < tp || (time = tp && seq < seqs.(parent)) then begin
      fill t !hole tp seqs.(parent) t.ids.(parent);
      hole := parent
    end
    else rising := false
  done;
  fill t !hole time seq id

let sift_down t i =
  let times = t.times and seqs = t.seqs and size = t.size in
  let time = times.(i) and seq = seqs.(i) and id = t.ids.(i) in
  let hole = ref i in
  let sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    if left >= size then sinking := false
    else begin
      let right = left + 1 in
      let child =
        if right < size && entry_before t right left then right else left
      in
      let tc = times.(child) in
      if tc < time || (tc = time && seqs.(child) < seq) then begin
        fill t !hole tc seqs.(child) t.ids.(child);
        hole := child
      end
      else sinking := false
    end
  done;
  fill t !hole time seq id

(* Insert a disarmed timer with a fresh sequence number.  Inlined, like
   [rekey], so the float [time] computed by a caller in this module is
   never boxed. *)
let[@inline] arm t tm ~time =
  if tm.id < 0 then acquire t tm;
  grow t;
  let i = t.size in
  t.size <- i + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  fill t i time seq tm.id;
  sift_up t i

(* Re-key an armed timer in place.  The fresh seq is larger than every
   seq already in the heap, so when the time does not strictly decrease
   the entry can only sink; when it strictly decreases it can only
   rise (its new key is then strictly below both children's). *)
let[@inline] rekey t tm ~time =
  let i = tm.pos in
  let old_time = t.times.(i) in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if time < old_time then sift_up t i else sift_down t i

(* Move the last entry into slot [i] (now empty) and restore the heap
   property in whichever direction it is violated. *)
let refill t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    fill t i t.times.(last) t.seqs.(last) t.ids.(last);
    if i > 0 && entry_before t i ((i - 1) / 2) then sift_up t i
    else sift_down t i
  end

(* Remove an armed timer. *)
let remove t tm =
  let i = tm.pos in
  tm.pos <- -1;
  refill t i;
  if tm.oneshot then release t tm

(* Remove and return the root.  The caller has already read its time. *)
let pop_min t =
  let tm = t.timers.(t.ids.(0)) in
  tm.pos <- -1;
  refill t 0;
  if tm.oneshot then release t tm;
  tm

(* ------------------------------------------------------------------ *)
(* One-shot scheduling (closure API, built on the same timers)         *)
(* ------------------------------------------------------------------ *)

let at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.at: NaN time";
  if time < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is before current time %g" time
         t.clock.(0));
  let tm = { owner = t; action = f; pos = -1; id = -1; oneshot = true } in
  arm t tm ~time;
  tm

let schedule t ~delay f =
  if Float.is_nan delay then invalid_arg "Sim.schedule: NaN delay";
  if delay < 0. then
    invalid_arg (Printf.sprintf "Sim.schedule: negative delay %g" delay);
  at t ~time:(t.clock.(0) +. delay) f

let cancel tm = if tm.pos >= 0 then remove tm.owner tm
let pending tm = tm.pos >= 0

(* ------------------------------------------------------------------ *)
(* Reusable timers                                                     *)
(* ------------------------------------------------------------------ *)

module Timer = struct
  type timer = handle

  let create owner action =
    { owner; action; pos = -1; id = -1; oneshot = false }
  let set_action tm f = tm.action <- f

  let set_at tm ~time =
    let t = tm.owner in
    if Float.is_nan time then invalid_arg "Sim.Timer.set_at: NaN time";
    if time < t.clock.(0) then
      invalid_arg
        (Printf.sprintf "Sim.Timer.set_at: time %g is before current time %g"
           time t.clock.(0));
    if tm.pos >= 0 then rekey t tm ~time else arm t tm ~time

  let set tm ~delay =
    let t = tm.owner in
    if Float.is_nan delay then invalid_arg "Sim.Timer.set: NaN delay";
    if delay < 0. then
      invalid_arg (Printf.sprintf "Sim.Timer.set: negative delay %g" delay);
    let time = t.clock.(0) +. delay in
    if tm.pos >= 0 then rekey t tm ~time else arm t tm ~time

  let cancel = cancel
  let pending = pending
end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute t tm =
  t.executed <- t.executed + 1;
  (match t.observers with
   | [] -> ()
   | obs ->
     let time = t.clock.(0) in
     List.iter (fun f -> f time) obs);
  tm.action ()

let step t ~until =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) in
    if time > until then false
    else begin
      let tm = pop_min t in
      t.clock.(0) <- time;
      execute t tm;
      true
    end
  end

let run t ~until =
  if Float.is_nan until then invalid_arg "Sim.run: NaN horizon";
  if until < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.run: horizon %g is before current time %g" until
         t.clock.(0));
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else begin
      let time = t.times.(0) in
      if time > until then continue := false
      else begin
        let tm = pop_min t in
        t.clock.(0) <- time;
        execute t tm
      end
    end
  done;
  (* The queue is drained of events at or before [until]; the clock always
     lands exactly on the horizon. *)
  t.clock.(0) <- until

(* ------------------------------------------------------------------ *)
(* Guarded execution (watchdogs)                                       *)
(* ------------------------------------------------------------------ *)

type stop_reason =
  | Completed
  | Event_budget of int
  | Wall_budget of float
  | Stop_requested

let stop_reason_to_string = function
  | Completed -> "completed"
  | Event_budget n -> Printf.sprintf "event budget exhausted (%d events)" n
  | Wall_budget s -> Printf.sprintf "wall-clock budget exhausted (%.3gs)" s
  | Stop_requested -> "stop requested"

(* Wall clock and stop predicate are polled once per [guard_mask + 1]
   events (~0.2 ms of hot-path work); the event budget is a single int
   compare so it is checked every iteration.  This loop is deliberately
   separate from [run]: unbudgeted runs keep the untouched hot path. *)
let guard_mask = 1023

let run_guarded t ~until ?max_events ?max_wall ?(wall_clock = Sys.time)
    ?(stop = fun () -> false) () =
  if Float.is_nan until then invalid_arg "Sim.run_guarded: NaN horizon";
  if until < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.run_guarded: horizon %g is before current time %g"
         until t.clock.(0));
  let wall0 = match max_wall with Some _ -> wall_clock () | None -> 0. in
  let executed0 = t.executed in
  let reason = ref Completed in
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else begin
      let time = t.times.(0) in
      if time > until then continue := false
      else begin
        let ran = t.executed - executed0 in
        (match max_events with
         | Some m when ran >= m ->
           reason := Event_budget ran;
           continue := false
         | _ -> ());
        if !continue && ran land guard_mask = 0 then
          if stop () then begin
            reason := Stop_requested;
            continue := false
          end
          else (
            match max_wall with
            | Some w ->
              let elapsed = wall_clock () -. wall0 in
              if elapsed > w then begin
                reason := Wall_budget elapsed;
                continue := false
              end
            | None -> ());
        if !continue then begin
          let tm = pop_min t in
          t.clock.(0) <- time;
          execute t tm
        end
      end
    end
  done;
  (* On completion the clock lands exactly on the horizon, as in [run];
     on an early stop it stays at the last executed event so the partial
     state is internally consistent and the run can be resumed. *)
  if !reason = Completed then t.clock.(0) <- until;
  !reason

let run_to_completion t =
  while t.size > 0 do
    let time = t.times.(0) in
    let tm = pop_min t in
    t.clock.(0) <- time;
    execute t tm
  done
