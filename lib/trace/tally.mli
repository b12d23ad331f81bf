(** Streaming, O(1)-memory window statistics of a run.

    The always-on counterpart of the full recorders ({!Queue_trace},
    {!Drop_log}, {!Sojourn_trace}): it folds each event into the few
    scalars the run summary reads, computing exactly — same values, same
    float operation order — what the batch code computes from the
    recorded traces over the measurement window [\[t0, t1)]:
    - the maximum of each trunk-0 queue over [\[t0, t1\]], including the
      value carried into the window ({!Series.min_max});
    - both trunk-0 queues resampled on the [\[t0, t1)] grid of period
      [dt] ({!Series.resample}), into a compact {!grid} that grows with
      the simulated time actually run;
    - the drops in the window, on every link ({!Drop_log.in_window});
    - the congestion epochs of those drops with a gap of {!epoch_gap}:
      how many, and how many had a single losing connection;
    - the ACK sojourn sum and count on each trunk-0 link
      ({!Sojourn_trace.mean_sojourn}).

    [t1] is only known when the run ends: the horizon, or the clock of
    an early stop.  Events at exactly [t1] are outside [\[t0, t1)], so
    every windowed part also keeps its value from before its latest
    instant, and {!finish} picks that one when the latest instant is
    [t1]. *)

type t

(** The epoch gap (seconds) of the streamed epoch state machine, the
    default of [Analysis.Epochs.detect]'s callers. *)
val epoch_gap : float

(** A resample grid of queue lengths: one or two bytes a point while
    the lengths fit. *)
type grid

val grid_length : grid -> int

(** [grid_get g i] is point [i] as a float, the value
    {!Series.resample} gives it.
    @raise Invalid_argument if [i] is out of bounds. *)
val grid_get : grid -> int -> float

(** Hook onto [links] (drops) and the trunk-0 pair [fwd]/[bwd] (queue
    and ACK sojourn), taking the queues' current lengths as their first
    samples.  [t0] is the window start, [horizon]
    the latest possible window end (it bounds the resample grids) and
    [dt] the resample period.  Nothing is allocated for the horizon up
    front. *)
val attach :
  links:Net.Link.t list ->
  fwd:Net.Link.t ->
  bwd:Net.Link.t ->
  t0:float ->
  horizon:float ->
  dt:float ->
  t

(** The window's statistics; fields named [q1]/[fwd] are the right-going
    trunk-0 link's, [q2]/[bwd] the left-going one's. *)
type summary = {
  q1_max : float;
  q2_max : float;
  q1_grid : grid;  (** resampled on [\[t0, t1)]; empty if [t1 <= t0] *)
  q2_grid : grid;
  drops_window : int;  (** drops with [t0 <= time < t1], every link *)
  drops_total : int;  (** every drop of the run ([Link.counters]) *)
  epochs : int;  (** congestion epochs among the window's drops *)
  single_losers : int;  (** epochs whose drops all hit one connection *)
  ack_sojourn_fwd : float;
      (** summed queueing delay of ACKs departing in the window *)
  acks_fwd : int;  (** ACK departures in the window *)
  ack_sojourn_bwd : float;
  acks_bwd : int;
}

(** The statistics over [\[t0, t1)].  [t1] must not precede the latest
    event seen nor exceed [horizon]; call once, after the run. *)
val finish : t -> t1:float -> summary

(** Mean drops per congestion epoch ([Analysis.Epochs.mean_drops]);
    [None] without epochs. *)
val mean_drops_per_epoch : summary -> float option

(** Share of epochs with a single losing connection
    ([Analysis.Epochs.single_loser_fraction]); [None] without epochs. *)
val single_loser_fraction : summary -> float option

(** The larger of the two directions' mean ACK sojourn in the window, in
    packet transmission times [data_tx]
    ([Sojourn_trace.effective_pipe_packets]); [None] when no ACK left
    either trunk-0 queue in the window.
    @raise Invalid_argument if [data_tx <= 0]. *)
val effective_pipe : summary -> data_tx:float -> float option
