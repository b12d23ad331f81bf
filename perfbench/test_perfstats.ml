(* Tests of the benchmark's own arithmetic (perfstats.ml). *)

let feq = Alcotest.float 1e-9

(* A clock that returns the scripted times in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
      q := rest;
      t
    | [] -> Alcotest.fail "clock read more often than scripted"

let test_self_time_nested () =
  (* root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [3, 6] overlaps a. *)
  let r = Perfstats.recorder ~run:7 ~clock:(scripted [ 0.; 1.; 2.; 3.; 4.; 10. ]) () in
  Perfstats.with_span r "root" (fun () ->
      Perfstats.with_span r "a" (fun () ->
          Perfstats.with_span r "a1" (fun () -> ()));
      let root = Option.get (Perfstats.current r) in
      ignore (Perfstats.add r ~name:"b" ~parent:root ~t0:3. ~t1:6. () : int));
  let all = Perfstats.spans r in
  let find n = List.find (fun (s : Perfstats.span) -> s.name = n) all in
  let self n = Perfstats.self_time all (find n) in
  (* root: 10 s minus the union of a and b, [1, 6] = 5 s. *)
  Alcotest.check feq "root self" 5. (self "root");
  Alcotest.check feq "a self" 2. (self "a");
  Alcotest.check feq "a1 self" 1. (self "a1");
  Alcotest.check feq "b self" 3. (self "b");
  Alcotest.(check (option int)) "a1 parent is a" (Some (find "a").id) (find "a1").parent;
  Alcotest.(check (option int)) "root has no parent" None (find "root").parent;
  Alcotest.(check bool) "every span carries the run id" true
    (List.for_all (fun (s : Perfstats.span) -> s.run = 7) all)

let test_self_time_parallel_children () =
  (* Pool points run side by side: two children covering the same
     interval count once, and a child poking out of its parent is
     clipped. *)
  let spans =
    [
      { Perfstats.id = 1; name = "pool"; parent = None; run = 1; t0 = 0.; t1 = 4. };
      { id = 2; name = "point"; parent = Some 1; run = 1; t0 = 0.; t1 = 3. };
      { id = 3; name = "point"; parent = Some 1; run = 1; t0 = 0.; t1 = 3. };
      { id = 4; name = "point"; parent = Some 1; run = 1; t0 = 3.5; t1 = 9. };
    ]
  in
  Alcotest.check feq "pool self" 0.5 (Perfstats.self_time spans (List.hd spans));
  match Perfstats.by_name spans with
  | [ ("pool", 1, _, _); ("point", 3, total, self) ] ->
    Alcotest.check feq "point total" 11.5 total;
    Alcotest.check feq "point self" 11.5 self
  | _ -> Alcotest.fail "by_name groups by name in first-seen order"

let test_tail_percentile () =
  let check n expected =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n = %d" n) expected
      (Perfstats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.);
  check 99 (Some 50.);
  check 100 (Some 90.);
  check 109 (Some 90.);
  check 999 (Some 90.);
  check 1000 (Some 99.);
  check 10_000 (Some 99.9);
  (* Whatever the rank, at least ten samples lie beyond it. *)
  List.iter
    (fun n ->
      match Perfstats.tail_percentile n with
      | Some p ->
        let xs = List.init n float_of_int in
        let v = Perfstats.percentile xs p in
        let beyond = List.length (List.filter (fun x -> x > v) xs) in
        if beyond < 10 then
          Alcotest.failf "n = %d, p%g leaves %d samples beyond" n p beyond
      | None -> ())
    [ 20; 57; 100; 109; 250; 1000; 1234; 10_000 ]

let test_percentile_median () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check feq "median odd" 3. (Perfstats.median xs);
  Alcotest.check feq "median even" 2.5 (Perfstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "p50 nearest rank" 3. (Perfstats.percentile xs 50.);
  Alcotest.check feq "p90 nearest rank" 5. (Perfstats.percentile xs 90.);
  Alcotest.check feq "p100 is the max" 5. (Perfstats.percentile xs 100.);
  Alcotest.check feq "p0 is the min" 1. (Perfstats.percentile xs 0.)

let test_ladder_subtraction () =
  let lower = { Perfstats.events = 1_000_000; seconds = 0.2; minor_words = 4e6 } in
  let upper = { Perfstats.events = 500_000; seconds = 0.25; minor_words = 5.5e6 } in
  Alcotest.check feq "lower ns/event" 200. (Perfstats.ns_per_event lower);
  Alcotest.check feq "upper words/event" 11. (Perfstats.words_per_event upper);
  let ns, words = Perfstats.marginal ~upper ~lower in
  Alcotest.check feq "marginal ns/event" 300. ns;
  Alcotest.check feq "marginal words/event" 7. words;
  Alcotest.check feq "heap slope" 2.5 (Perfstats.slope ~x0:1000. ~y0:500. ~x1:3000. ~y1:5500.)

let test_digest_trips_fail_ratio () =
  let reference = "{\"id\":\"long-run\",\"util_fwd\":0.8}" in
  let expected = Perfstats.digest reference in
  let t = Perfstats.tally () in
  let op output =
    [ Perfstats.check "completed" true "";
      Perfstats.digest_check ~what:"digest long-run" ~expected output ]
  in
  Perfstats.record t (op reference);
  Alcotest.(check int) "clean run: no failures" 0 t.failed;
  Alcotest.check feq "clean fail_ratio" 0. (Perfstats.fail_ratio t);
  (* One altered byte in the output. *)
  let altered = "{\"id\":\"long-run\",\"util_fwd\":0.9}" in
  let checks = op altered in
  Alcotest.(check bool) "digest check fails" false
    (List.for_all (fun (c : Perfstats.check) -> c.ok) checks);
  Perfstats.record t checks;
  Alcotest.(check int) "attempted" 2 t.attempted;
  Alcotest.(check int) "failed" 1 t.failed;
  Alcotest.check feq "fail_ratio rises" 0.5 (Perfstats.fail_ratio t)

let () =
  Alcotest.run "perfstats"
    [
      ( "spans",
        [
          Alcotest.test_case "self time, nested" `Quick test_self_time_nested;
          Alcotest.test_case "self time, parallel children" `Quick
            test_self_time_parallel_children;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "tail percentile keeps >= 10 beyond" `Quick
            test_tail_percentile;
          Alcotest.test_case "percentile and median" `Quick test_percentile_median;
        ] );
      ("ladder", [ Alcotest.test_case "subtraction" `Quick test_ladder_subtraction ]);
      ( "checks",
        [ Alcotest.test_case "altered output trips the digest" `Quick
            test_digest_trips_fail_ratio ] );
    ]
