type sink = string -> unit

type flight_record = float * Btrace.ev

type t = {
  sim : Engine.Sim.t;
  writer : Btrace.writer option;
  flight : flight_record Flight.t option;
  link_cache : (int, Btrace.link) Hashtbl.t;
  mutable emitted : int;
  mutable finished : bool;
}

let create ?btrace ?flight sim =
  {
    sim;
    writer = Option.map (fun s -> Btrace.writer s) btrace;
    flight;
    link_cache = Hashtbl.create 8;
    emitted = 0;
    finished = false;
  }

let link_of t l =
  let id = Net.Link.id l in
  match Hashtbl.find_opt t.link_cache id with
  | Some pl -> pl
  | None ->
    let pl = Btrace.plain_link l in
    Hashtbl.add t.link_cache id pl;
    pl

let declare_link t link =
  ignore (link_of t link : Btrace.link);
  match t.writer with
  | Some w -> Btrace.declare_link w link
  | None -> ()

let declare_conn_meta t conn ~start_time ~flow_size =
  match t.writer with
  | Some w -> Btrace.declare_conn_meta w conn ~start_time ~flow_size
  | None -> ()

let emit t ~time ev =
  t.emitted <- t.emitted + 1;
  (match t.writer with Some w -> Btrace.event w ~time ev | None -> ());
  match t.flight with
  | Some f ->
    (* The ring outlives the emitting hook, so it stores a plain copy;
       the live packet in [ev] is recycled as soon as the hook returns. *)
    Flight.record f (time, Btrace.plain_ev ~link_of:(link_of t) ev)
  | None -> ()

let events_emitted t = t.emitted
let flight t = t.flight

let render_flight (time, ev) = Btrace.jsonl_line ~time ev

let finish t =
  if not t.finished then begin
    t.finished <- true;
    match t.writer with Some w -> Btrace.flush w | None -> ()
  end

let with_file_sink path f =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () ->
      (* Flush-and-close even when [f] raises, so everything the writer
         handed to the sink reaches the file; the binary reader recovers
         every complete record from such a prefix. *)
      try
        flush oc;
        close_out oc
      with Sys_error _ -> ())
    (fun () -> f (output_string oc))
