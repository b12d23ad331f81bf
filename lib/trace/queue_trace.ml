type t = {
  link : Net.Link.t;
  series : Series.t;
  mutable peak : int;
  mutable last : int;
}

let attach link ~now =
  let qlen = Net.Link.queue_length link in
  let t = { link; series = Series.create (); peak = qlen; last = qlen } in
  Series.add t.series ~time:now ~value:(float_of_int qlen);
  let record time qlen =
    Series.add t.series ~time ~value:(float_of_int qlen);
    t.last <- qlen;
    if qlen > t.peak then t.peak <- qlen
  in
  Net.Link.on_enqueue link (fun time _p qlen -> record time qlen);
  Net.Link.on_depart link (fun time _p qlen -> record time qlen);
  (* An outage flush empties the buffer through drops alone; any other
     drop leaves the length as last recorded and adds no sample. *)
  Net.Link.on_drop link (fun time _p ->
      let qlen = Net.Link.queue_length link in
      if qlen <> t.last then record time qlen);
  t

let series t = t.series
let link t = t.link
let peak t = t.peak
