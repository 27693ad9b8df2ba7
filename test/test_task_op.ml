(* Tests for the output event-stream operation Theta_tau (paper,
   section 3): jitter amplification by the response-time spread and
   serialization at the best-case response time. *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Task_op = Event_model.Task_op

let time = Alcotest.testable Time.pp Time.equal

let test_identity_for_zero_response () =
  let input = Stream.periodic_jitter ~name:"in" ~period:100 ~jitter:20 () in
  let out = Task_op.output ~response:(Interval.make ~lo:0 ~hi:0) input in
  for n = 0 to 10 do
    Alcotest.check time
      (Printf.sprintf "delta_min %d" n)
      (Stream.delta_min input n) (Stream.delta_min out n);
    Alcotest.check time
      (Printf.sprintf "delta_plus %d" n)
      (Stream.delta_plus input n) (Stream.delta_plus out n)
  done

let test_delta_plus_shifted () =
  let input = Stream.periodic ~name:"in" ~period:100 in
  let out = Task_op.output ~response:(Interval.make ~lo:5 ~hi:30) input in
  (* delta_plus' n = delta_plus n + (r+ - r-) *)
  for n = 2 to 8 do
    Alcotest.check time
      (Printf.sprintf "delta_plus %d" n)
      (Time.add (Stream.delta_plus input n) (Time.of_int 25))
      (Stream.delta_plus out n)
  done

let test_delta_min_recurrence () =
  (* Simultaneous input events are serialized at least r- apart; distant
     events keep their distance minus the response spread. *)
  let input =
    Stream.make ~name:"burst2"
      ~delta_min:(fun n -> Time.of_int ((n - 1) / 2 * 100))
      ~delta_plus:(fun n -> Time.of_int (((n - 1) / 2 * 100) + 10))
  in
  let out = Task_op.output ~response:(Interval.make ~lo:5 ~hi:30) input in
  (* n=2: max (0 - 25) (0 + 5) = 5 *)
  Alcotest.check time "delta_min 2" (Time.of_int 5) (Stream.delta_min out 2);
  (* n=3: max (100 - 25) (5 + 5) = 75 *)
  Alcotest.check time "delta_min 3" (Time.of_int 75) (Stream.delta_min out 3);
  (* n=4: max (100 - 25) (75 + 5) = 80 *)
  Alcotest.check time "delta_min 4" (Time.of_int 80) (Stream.delta_min out 4)

let test_paper_frame_output () =
  (* The bus output stream of frame F1 in the paper example: OR(S1,S2)
     processed with response [4:10]. *)
  let combined =
    Event_model.Combine.or_combine
      [
        Stream.periodic ~name:"S1" ~period:250;
        Stream.periodic ~name:"S2" ~period:450;
      ]
  in
  let out = Task_op.output ~response:(Interval.make ~lo:4 ~hi:10) combined in
  (* two simultaneous triggers leave the bus at least r- = 4 apart *)
  Alcotest.check time "delta_min 2" (Time.of_int 4) (Stream.delta_min out 2);
  (* third trigger is 250 after the first: 250 - 6 = 244 *)
  Alcotest.check time "delta_min 3" (Time.of_int 244) (Stream.delta_min out 3)

let test_infinite_delta_plus_preserved () =
  let input = Stream.sporadic ~name:"sp" ~d_min:50 in
  let out = Task_op.output ~response:(Interval.make ~lo:1 ~hi:7) input in
  Alcotest.check time "inf stays" Time.Inf (Stream.delta_plus out 2)

let test_default_name () =
  let input = Stream.periodic ~name:"in" ~period:10 in
  let out = Task_op.output ~response:(Interval.point 3) input in
  Alcotest.(check string) "name" "out(in)" (Stream.name out)

(* properties *)

let arb_stream =
  let open QCheck in
  map
    (fun (p, j) ->
      Stream.periodic_jitter ~name:"s" ~period:(Stdlib.max 1 p)
        ~jitter:(Stdlib.max 0 j) ())
    (pair (int_range 1 200) (int_range 0 300))

let arb_response =
  QCheck.map
    (fun (lo, w) ->
      Interval.make ~lo:(Stdlib.max 0 lo) ~hi:(Stdlib.max 0 lo + Stdlib.max 0 w))
    QCheck.(pair (int_range 0 40) (int_range 0 60))

let prop_output_min_distance_r_minus =
  QCheck.Test.make ~name:"output events >= r- apart" ~count:100
    (QCheck.pair arb_stream arb_response) (fun (s, r) ->
      let out = Task_op.output ~response:r s in
      let r_minus = Interval.lo r in
      List.for_all
        (fun n ->
          Time.(Stream.delta_min out n >= Time.of_int ((n - 1) * r_minus)))
        [ 2; 3; 4; 5; 8 ])

let prop_output_monotone_delta_min =
  QCheck.Test.make ~name:"output delta_min monotone" ~count:100
    (QCheck.pair arb_stream arb_response) (fun (s, r) ->
      let out = Task_op.output ~response:r s in
      List.for_all
        (fun n -> Time.(Stream.delta_min out n <= Stream.delta_min out (n + 1)))
        [ 1; 2; 3; 4; 5; 6 ])

let prop_output_delta_plus_exact =
  (* delta_plus' n = delta_plus n + (r+ - r-), verbatim from the paper *)
  QCheck.Test.make ~name:"output delta_plus shift exact" ~count:100
    (QCheck.pair arb_stream arb_response) (fun (s, r) ->
      let out = Task_op.output ~response:r s in
      List.for_all
        (fun n ->
          Time.equal
            (Stream.delta_plus out n)
            (Time.add (Stream.delta_plus s n) (Time.of_int (Interval.width r))))
        [ 2; 3; 5; 9 ])

(* the compact (periodic-backend, verified-window) construction must
   agree with the direct Θτ recursion everywhere — deep probes included,
   where the compact curve runs on tail arithmetic *)
let arb_stream_mixed =
  let open QCheck in
  let jittered =
    map
      (fun (p, j, d) ->
        Stream.periodic_jitter ~name:"s" ~period:p ~jitter:j
          ~d_min:(Stdlib.min d p) ())
      (triple (int_range 1 200) (int_range 0 400) (int_range 1 10))
  in
  let bursty =
    map
      (fun (p, b, d) ->
        let burst = 1 + (b mod 5) in
        let period = Stdlib.max p (burst * d) in
        Stream.periodic_burst ~name:"s" ~period ~burst ~d_min:d)
      (triple (int_range 10 300) (int_range 0 10) (int_range 1 15))
  in
  choose [ jittered; bursty ]

let deep_ns = [ 1; 2; 3; 4; 5; 7; 11; 16; 33; 64; 100; 257; 1000; 4001 ]

let prop_output_matches_reference =
  QCheck.Test.make ~name:"output = reference output" ~count:150
    (QCheck.pair arb_stream_mixed arb_response) (fun (s, r) ->
      let out = Task_op.output ~response:r s in
      let reference = Verify.Reference.task_output ~response:r s in
      List.for_all
        (fun n ->
          Time.equal (Stream.delta_min out n) (Stream.delta_min reference n)
          && Time.equal (Stream.delta_plus out n)
               (Stream.delta_plus reference n))
        deep_ns)

(* Theta_tau conservatism audit (differential): the compact kernel path
   must equal the direct recursion (Verify.Reference.task_output)
     d' n = max (d n - spread) (d' (n-1) + r-)
   on the historically suspect families — jitter larger than the period
   (deep clamped region, late floor/tail crossover) and r- = 0 (floor
   never binds, output follows the shifted input exactly).  The audit
   swept ~900 adversarial parameter combinations without divergence;
   these pin its representatives. *)
let audit_ns = [ 2; 3; 5; 17; 100; 1000; 4001; 30000 ]

let test_theta_audit_jitter_above_period () =
  List.iter
    (fun (period, jitter, lo, hi) ->
      let s =
        Stream.periodic_jitter ~name:"s" ~period ~jitter ~d_min:0 ()
      in
      let r = Interval.make ~lo ~hi in
      let out = Task_op.output ~response:r s in
      let reference = Verify.Reference.task_output ~response:r s in
      List.iter
        (fun n ->
          Alcotest.check time
            (Printf.sprintf "p=%d j=%d [%d:%d] n=%d" period jitter lo hi n)
            (Stream.delta_min reference n)
            (Stream.delta_min out n))
        audit_ns)
    [
      (* jitter >> period: the clamp region covers many events *)
      100, 950, 5, 30;
      40, 3000, 2, 2;
      (* jitter > 2047 * period: past the old horizon slack *)
      4, 10000, 1, 7;
      (* spread alone above the period *)
      100, 0, 0, 250;
    ]

let test_theta_audit_zero_r_minus () =
  List.iter
    (fun (period, jitter, hi) ->
      let s =
        Stream.periodic_jitter ~name:"s" ~period ~jitter ~d_min:0 ()
      in
      let r = Interval.make ~lo:0 ~hi in
      let out = Task_op.output ~response:r s in
      let reference = Verify.Reference.task_output ~response:r s in
      List.iter
        (fun n ->
          Alcotest.check time
            (Printf.sprintf "p=%d j=%d [0:%d] n=%d" period jitter hi n)
            (Stream.delta_min reference n)
            (Stream.delta_min out n))
        audit_ns)
    [ 100, 0, 60; 100, 250, 60; 7, 1000, 3; 1, 0, 0 ]

let test_compact_backend_used () =
  (* on a plain jittered input the output must actually be a compact
     (periodic-tail) curve, not the closure fallback *)
  let input = Stream.periodic_jitter ~name:"in" ~period:250 ~jitter:600 () in
  let out = Task_op.output ~response:(Interval.make ~lo:5 ~hi:30) input in
  Alcotest.(check bool) "delta_min compact" true
    (Option.is_some
       (Event_model.Curve.periodic_tail (Stream.delta_min_curve out)));
  Alcotest.(check bool) "delta_plus compact" true
    (Option.is_some
       (Event_model.Curve.periodic_tail (Stream.delta_plus_curve out)))

let () =
  Alcotest.run "task_op"
    [
      ( "output model",
        [
          Alcotest.test_case "identity for [0:0]" `Quick
            test_identity_for_zero_response;
          Alcotest.test_case "delta_plus shift" `Quick test_delta_plus_shifted;
          Alcotest.test_case "delta_min recurrence" `Quick
            test_delta_min_recurrence;
          Alcotest.test_case "paper frame output" `Quick test_paper_frame_output;
          Alcotest.test_case "infinite delta_plus" `Quick
            test_infinite_delta_plus_preserved;
          Alcotest.test_case "default name" `Quick test_default_name;
          Alcotest.test_case "kernel output is compact" `Quick
            test_compact_backend_used;
          Alcotest.test_case "theta audit: jitter > period" `Quick
            test_theta_audit_jitter_above_period;
          Alcotest.test_case "theta audit: r- = 0" `Quick
            test_theta_audit_zero_r_minus;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_output_min_distance_r_minus;
            prop_output_monotone_delta_min;
            prop_output_delta_plus_exact;
            prop_output_matches_reference;
          ] );
    ]
