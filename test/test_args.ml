(* Validated CLI numeric parsing (lib/core/args.ml): [float_of_string]
   accepts "nan", "inf" and negatives where netsim flags mean durations,
   rates or probabilities, and a negative count or size used to crash
   the model with an internal error.  Every numeric flag in
   bin/netsim.ml routes through [Args.parse_float] or [Args.parse_int];
   this suite pins the check semantics and walks the flag tables so a new
   flag added without validation shows up as a missing row here. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let admits = Core.Args.admits

let test_admits_positive () =
  Alcotest.(check bool) "1e-9" true (admits Core.Args.Positive 1e-9);
  Alcotest.(check bool) "600" true (admits Core.Args.Positive 600.);
  Alcotest.(check bool) "zero" false (admits Core.Args.Positive 0.);
  Alcotest.(check bool) "negative" false (admits Core.Args.Positive (-1.));
  Alcotest.(check bool) "nan" false (admits Core.Args.Positive Float.nan);
  Alcotest.(check bool) "inf" false (admits Core.Args.Positive Float.infinity);
  Alcotest.(check bool) "-inf" false
    (admits Core.Args.Positive Float.neg_infinity)

let test_admits_non_negative () =
  Alcotest.(check bool) "zero" true (admits Core.Args.Non_negative 0.);
  Alcotest.(check bool) "positive" true (admits Core.Args.Non_negative 0.5);
  Alcotest.(check bool) "negative" false (admits Core.Args.Non_negative (-0.5));
  Alcotest.(check bool) "nan" false (admits Core.Args.Non_negative Float.nan);
  Alcotest.(check bool) "inf" false
    (admits Core.Args.Non_negative Float.infinity)

let test_admits_probability () =
  Alcotest.(check bool) "zero" true (admits Core.Args.Probability 0.);
  Alcotest.(check bool) "one" true (admits Core.Args.Probability 1.);
  Alcotest.(check bool) "half" true (admits Core.Args.Probability 0.5);
  Alcotest.(check bool) "above one" false (admits Core.Args.Probability 1.5);
  Alcotest.(check bool) "negative" false (admits Core.Args.Probability (-0.1));
  Alcotest.(check bool) "nan" false (admits Core.Args.Probability Float.nan);
  Alcotest.(check bool) "inf" false
    (admits Core.Args.Probability Float.infinity)

let test_error_messages () =
  (match Core.Args.parse_float ~what:"--loss" Core.Args.Probability "nan" with
   | Ok _ -> Alcotest.fail "nan accepted"
   | Error msg ->
     Alcotest.(check bool) "names the flag" true (contains msg "--loss");
     Alcotest.(check bool) "says nan" true (contains msg "nan");
     Alcotest.(check bool) "states the requirement" true
       (contains msg "probability in [0,1]"));
  (match Core.Args.parse_float ~what:"--duration" Core.Args.Positive "-3" with
   | Ok _ -> Alcotest.fail "negative duration accepted"
   | Error msg ->
     Alcotest.(check bool) "names the flag" true (contains msg "--duration");
     Alcotest.(check bool) "shows the value" true (contains msg "-3"));
  (match Core.Args.parse_float ~what:"--tau" Core.Args.Positive "abc" with
   | Ok _ -> Alcotest.fail "garbage accepted"
   | Error msg ->
     Alcotest.(check bool) "malformed input names the flag" true
       (contains msg "--tau"));
  match Core.Args.parse_float ~what:"--warmup" Core.Args.Non_negative " 2.5 " with
  | Ok v -> Alcotest.(check (float 0.)) "whitespace trimmed" 2.5 v
  | Error msg -> Alcotest.failf "trimmed input rejected: %s" msg

(* One row per numeric flag in bin/netsim.ml, with the check that flag
   declares.  Every row must reject the classic float_of_string
   footguns and accept a representative sane value. *)
let flag_table =
  [
    ("--duration", Core.Args.Positive, "600");
    ("--warmup", Core.Args.Non_negative, "200");
    ("--tau", Core.Args.Positive, "0.01");
    ("--skew", Core.Args.Non_negative, "0");
    ("--pacing", Core.Args.Positive, "0.05");
    ("--metrics-dt", Core.Args.Positive, "1");
    ("--max-wall", Core.Args.Positive, "30");
    ("--worker-timeout", Core.Args.Positive, "60");
    ("--loss", Core.Args.Probability, "0.01");
    ("--dup", Core.Args.Probability, "0.001");
    ("--jitter", Core.Args.Non_negative, "0.002");
    ("--burst-loss", Core.Args.Probability, "0.3");
    ("--outage", Core.Args.Non_negative, "5");
  ]

let test_per_flag_rejection () =
  List.iter
    (fun (flag, check, good) ->
      (match Core.Args.parse_float ~what:flag check good with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "%s rejects its own default: %s" flag msg);
      List.iter
        (fun bad ->
          match Core.Args.parse_float ~what:flag check bad with
          | Ok v -> Alcotest.failf "%s accepted %s (as %g)" flag bad v
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error names the flag for %s" flag bad)
              true (contains msg flag))
        [ "nan"; "inf"; "-inf"; "-1"; "x" ])
    flag_table

(* Integer flags: counts, sizes and windows.  Each row lists the values
   the flag must reject besides the malformed ones shared by all rows. *)
let int_flag_table =
  [
    ("--fwd", Core.Args.Non_negative, "1", [ "-1" ]);
    ("--rev", Core.Args.Non_negative, "0", [ "-2" ]);
    ("--fixed", Core.Args.Positive, "30", [ "0"; "-2" ]);
    ("--flow-size", Core.Args.Positive, "100", [ "0"; "-3" ]);
    ("--ack-size", Core.Args.Non_negative, "0", [ "-10" ]);
    ("--max-events", Core.Args.Non_negative, "20000", [ "-5" ]);
    ("--flight-recorder", Core.Args.Non_negative, "64", [ "-3" ]);
    ("--buffer", Core.Args.Non_negative, "0", [ "-3" ]);
    ("--jobs", Core.Args.Positive, "2", [ "0"; "-1" ]);
  ]

let test_per_int_flag_rejection () =
  List.iter
    (fun (flag, check, good, bad_values) ->
      (match Core.Args.parse_int ~what:flag check good with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "%s rejects %s: %s" flag good msg);
      List.iter
        (fun bad ->
          match Core.Args.parse_int ~what:flag check bad with
          | Ok v -> Alcotest.failf "%s accepted %s (as %d)" flag bad v
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error names the flag for %s" flag bad)
              true (contains msg flag))
        (bad_values @ [ "x"; "1.5"; "nan"; "" ]))
    int_flag_table;
  match Core.Args.parse_int ~what:"--fwd" Core.Args.Non_negative "-1" with
  | Ok _ -> Alcotest.fail "negative count accepted"
  | Error msg ->
    Alcotest.(check string) "message" "--fwd must be an integer >= 0 (got -1)"
      msg

(* End to end: each bad integer flag is a usage error (cmdliner's exit
   124) raised at parse time, not an internal error (125) from deep in
   the model. *)
let test_bad_int_flags_exit_124 () =
  let netsim =
    match Test_domain_safety.netsim with
    | Some p when Sys.os_type = "Unix" -> p
    | _ -> Alcotest.skip ()
  in
  let exits_124 args =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process netsim (Array.of_list (netsim :: args)) Unix.stdin
        null null
    in
    Unix.close null;
    let flag = List.nth args (List.length args - 1) in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code ->
      Alcotest.(check int) (flag ^ " exits with a usage error") 124 code
    | _ -> Alcotest.failf "%s: netsim killed by a signal" flag
  in
  List.iter
    (fun flag -> exits_124 [ "run"; "--duration"; "5"; "--warmup"; "1"; flag ])
    [
      "--fwd=-1"; "--rev=-2"; "--fixed=0,5"; "--fixed=-2,5"; "--flow-size=0";
      "--flow-size=-3"; "--ack-size=-10"; "--max-events=-5";
      "--flight-recorder=-3"; "--buffer=-3";
    ];
  exits_124 [ "sweep"; "smoke"; "--quick"; "--jobs=-1" ];
  exits_124 [ "sweep"; "smoke"; "--quick"; "--jobs=0" ]

let suite =
  ( "args",
    [
      Alcotest.test_case "positive check" `Quick test_admits_positive;
      Alcotest.test_case "non-negative check" `Quick test_admits_non_negative;
      Alcotest.test_case "probability check" `Quick test_admits_probability;
      Alcotest.test_case "errors name flag, value, requirement" `Quick
        test_error_messages;
      Alcotest.test_case "every numeric flag rejects nan/inf/negative" `Quick
        test_per_flag_rejection;
      Alcotest.test_case "every integer flag rejects out-of-range values"
        `Quick test_per_int_flag_rejection;
      Alcotest.test_case "bad integer flags exit 124, not 125" `Quick
        test_bad_int_flags_exit_124;
    ] )
