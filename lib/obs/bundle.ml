(* Crash-bundle file plumbing: a bundle is a plain directory of small
   files, written best-effort (a failure to persist a postmortem must
   never mask the failure being reported).  The semantic layer — what
   goes in meta.json, how scenario.bin is produced — lives in
   [Core.Crash]; this module only knows about bytes and paths. *)

let meta_file = "meta.json"
let scenario_file = "scenario.bin"
let flight_file = "flight.txt"
let metrics_file = "metrics.json"

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let write ~dir ~meta_json ~scenario_blob ?flight_text ?metrics_json () =
  try
    mkdirs dir;
    write_file (Filename.concat dir meta_file) meta_json;
    write_file (Filename.concat dir scenario_file) scenario_blob;
    (match flight_text with
     | Some text -> write_file (Filename.concat dir flight_file) text
     | None -> ());
    (match metrics_json with
     | Some json -> write_file (Filename.concat dir metrics_file) json
     | None -> ());
    Ok dir
  with
  | Sys_error msg -> Error msg
  | e -> Error (Printexc.to_string e)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Ok (really_input_string ic (in_channel_length ic))
        with End_of_file | Sys_error _ ->
          Error ("unreadable file: " ^ path))

let load ~dir =
  match read_file (Filename.concat dir meta_file) with
  | Error _ as e -> e
  | Ok meta -> (
    match read_file (Filename.concat dir scenario_file) with
    | Error _ as e -> e
    | Ok blob -> Ok (meta, blob))
