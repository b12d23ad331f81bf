(** Crash-bundle file plumbing.

    A bundle is a plain directory:
    {v
    <dir>/meta.json      what happened (rendered by the caller)
    <dir>/scenario.bin   opaque scenario blob (Marshal, by the caller)
    <dir>/flight.txt     flight-recorder postmortem (optional)
    <dir>/metrics.json   final metrics snapshot (optional)
    v}

    This module moves bytes; the semantic layer (meta rendering,
    scenario marshaling, replay) is [Core.Crash] and [netsim replay].
    Writes are best-effort: every failure comes back as [Error] so a
    failed postmortem never masks the crash being reported. *)

(** Write a bundle into [dir] (created, parents included, if needed;
    existing files are overwritten — bundle naming is the caller's
    concern).  [flight_text] is the pre-rendered flight-recorder
    postmortem (see {!Probe.flight_text}). *)
val write :
  dir:string ->
  meta_json:string ->
  scenario_blob:string ->
  ?flight_text:string ->
  ?metrics_json:string ->
  unit ->
  (string, string) result

(** [(meta_json, scenario_blob)] of the bundle at [dir]. *)
val load : dir:string -> (string * string, string) result
