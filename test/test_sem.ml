(* Tests for standard event models: closed forms vs the generic searches,
   and the conservative SEM fitting used by the flat baseline. *)

module Time = Timebase.Time
module Count = Timebase.Count
module Stream = Event_model.Stream
module Sem = Event_model.Sem

let time = Alcotest.testable Time.pp Time.equal

let count = Alcotest.testable Count.pp Count.equal

let test_make_validation () =
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "period 0" true
    (raises (fun () -> Sem.make ~period:0 ()));
  Alcotest.(check bool) "jitter neg" true
    (raises (fun () -> Sem.make ~period:10 ~jitter:(-1) ()));
  Alcotest.(check bool) "d_min neg" true
    (raises (fun () -> Sem.make ~period:10 ~d_min:(-1) ()));
  Alcotest.(check bool) "d_min 0 allowed" false
    (raises (fun () -> Sem.make ~period:10 ~d_min:0 ()))

let test_periodic_shortcut () =
  Alcotest.(check bool) "equal" true
    (Sem.equal (Sem.periodic 50) (Sem.make ~period:50 ()))

let test_delta_closed_forms () =
  let sem = Sem.make ~period:100 ~jitter:30 ~d_min:5 () in
  Alcotest.check time "delta_min 1" Time.zero (Sem.delta_min sem 1);
  Alcotest.check time "delta_min 2" (Time.of_int 70) (Sem.delta_min sem 2);
  (* d_min binds when jitter removes the periodic part *)
  let bursty = Sem.make ~period:100 ~jitter:500 ~d_min:5 () in
  Alcotest.check time "d_min binds" (Time.of_int 10) (Sem.delta_min bursty 3);
  Alcotest.check time "delta_plus" (Time.of_int 230) (Sem.delta_plus sem 3)

let test_of_sem_representation () =
  (* the embedded stream's delta_min is a compact periodic curve: its
     prefix runs to the crossover, then one period per event *)
  let bursty = Sem.make ~period:100 ~jitter:500 ~d_min:5 () in
  let dmin = Stream.delta_min_curve (Sem.to_stream bursty) in
  (match Event_model.Curve.periodic_tail dmin with
   | Some (_, events, time) ->
     Alcotest.(check (pair int int)) "periodic tail" (1, 100) (events, time)
   | None -> Alcotest.fail "expected a compact periodic delta_min");
  for n = 0 to 64 do
    Alcotest.check time
      (Printf.sprintf "stream delta_min %d" n)
      (Sem.delta_min bursty n)
      (Event_model.Curve.eval dmin n)
  done;
  (* a strictly periodic SEM needs a one-entry prefix *)
  let strict = Sem.to_stream (Sem.make ~period:42 ~d_min:42 ()) in
  let strict_dmin = Stream.delta_min_curve strict in
  (match Event_model.Curve.periodic_tail strict_dmin with
   | Some (prefix_len, _, _) ->
     Alcotest.(check int) "strict prefix" 1 prefix_len
   | None -> Alcotest.fail "expected a compact periodic delta_min");
  Alcotest.check time "strict eval" (Time.of_int (42 * 9))
    (Event_model.Curve.eval strict_dmin 10)

let test_eta_closed_vs_stream () =
  (* the closed forms must agree with the generic pseudo-inversion *)
  let cases =
    [
      Sem.make ~period:100 ~jitter:0 ~d_min:1 ();
      Sem.make ~period:100 ~jitter:30 ~d_min:1 ();
      Sem.make ~period:50 ~jitter:500 ~d_min:3 ();
      Sem.make ~period:1 ~jitter:0 ~d_min:0 ();
      Sem.make ~period:250 ~jitter:10 ~d_min:250 ();
    ]
  in
  List.iter
    (fun sem ->
      let s = Sem.to_stream sem in
      List.iter
        (fun dt ->
          Alcotest.check count
            (Format.asprintf "eta+ %a dt=%d" Sem.pp sem dt)
            (Stream.eta_plus s dt) (Sem.eta_plus sem dt);
          Alcotest.check count
            (Format.asprintf "eta- %a dt=%d" Sem.pp sem dt)
            (Stream.eta_minus s dt) (Sem.eta_minus sem dt))
        [ 0; 1; 2; 49; 50; 51; 99; 100; 101; 499; 500; 501; 1000 ])
    cases

let test_to_stream_name () =
  Alcotest.(check string) "default name" "sem(P=10,J=2,d=1)"
    (Stream.name (Sem.to_stream (Sem.make ~period:10 ~jitter:2 ())));
  Alcotest.(check string) "custom name" "x"
    (Stream.name (Sem.to_stream ~name:"x" (Sem.periodic 10)))

let test_fit_roundtrip () =
  (* Fitting a stream that already is a SEM recovers its parameters, when
     all three regimes (d_min burst limit, periodic tail, jitter offset)
     are visible in the curve. *)
  let sem = Sem.make ~period:100 ~jitter:500 ~d_min:5 () in
  let fitted = Sem.fit (Sem.to_stream sem) in
  Alcotest.(check bool)
    (Format.asprintf "got %a" Sem.pp fitted)
    true
    (Sem.equal sem fitted)

let test_fit_dominates () =
  (* fitted delta_min must lower-bound the stream's delta_min, so the SEM
     arrival curve upper-bounds the stream's *)
  let streams =
    [
      Stream.periodic_burst ~name:"b" ~period:200 ~burst:3 ~d_min:10;
      Event_model.Combine.or_combine
        [
          Stream.periodic ~name:"p1" ~period:250;
          Stream.periodic ~name:"p2" ~period:450;
        ];
    ]
  in
  List.iter
    (fun s ->
      let fitted = Sem.fit ~horizon:128 s in
      for n = 2 to 128 do
        Alcotest.(check bool)
          (Printf.sprintf "%s n=%d" (Stream.name s) n)
          true
          Time.(Sem.delta_min fitted n <= Stream.delta_min s n)
      done)
    streams

let test_fit_rejects_finite_streams () =
  let finite =
    Stream.make ~name:"finite"
      ~delta_min:(fun n -> if n > 3 then Time.Inf else Time.of_int (n * 10))
      ~delta_plus:(fun _ -> Time.Inf)
  in
  Alcotest.(check bool) "raises" true
    (match Sem.fit finite with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* properties *)

(* the shrinker may step outside the generator ranges; clamp defensively
   (and keep d_min <= period, the model invariant) *)
let arb_sem =
  QCheck.map
    (fun (p, j, d) ->
      let period = Stdlib.max 1 p in
      Sem.make ~period ~jitter:(Stdlib.max 0 j)
        ~d_min:(Stdlib.min period (Stdlib.max 0 d)) ())
    (QCheck.triple (QCheck.int_range 1 300) (QCheck.int_range 0 600)
       (QCheck.int_range 0 10))

let prop_closed_eta_plus_matches =
  QCheck.Test.make ~name:"closed-form eta_plus = search" ~count:150
    (QCheck.pair arb_sem (QCheck.int_range 0 1500)) (fun (sem, dt) ->
      Count.equal (Sem.eta_plus sem dt) (Stream.eta_plus (Sem.to_stream sem) dt))

let prop_closed_eta_minus_matches =
  QCheck.Test.make ~name:"closed-form eta_minus = search" ~count:150
    (QCheck.pair arb_sem (QCheck.int_range 0 1500)) (fun (sem, dt) ->
      Count.equal (Sem.eta_minus sem dt)
        (Stream.eta_minus (Sem.to_stream sem) dt))

let prop_fit_conservative =
  QCheck.Test.make ~name:"fit lower-bounds delta_min" ~count:60
    (QCheck.pair arb_sem (QCheck.int_range 2 64)) (fun (sem, n) ->
      let s = Sem.to_stream sem in
      let fitted = Sem.fit ~horizon:64 s in
      Time.(Sem.delta_min fitted n <= Stream.delta_min s n))

(* [Sem.fit] skips the division d / (n - 1) whenever it cannot lower
   d_min; the fitted model must equal the plain scan over every sample *)
let plain_fit ~horizon s =
  let d n = Time.to_int (Stream.delta_min s n) in
  let mid = Stdlib.max 2 (horizon / 2) in
  let period = Stdlib.max 1 ((d horizon - d mid) / (horizon - mid)) in
  let jitter = ref 0 and d_min = ref max_int in
  for n = 2 to horizon do
    jitter := Stdlib.max !jitter (((n - 1) * period) - d n);
    d_min := Stdlib.min !d_min (d n / (n - 1))
  done;
  let d_min = Stdlib.min period (Stdlib.max 0 !d_min) in
  Sem.make ~period ~jitter:!jitter ~d_min ()

let prop_fit_equals_plain_scan =
  let arb_input =
    QCheck.(
      triple (int_range 1 300) (int_range 0 600) (int_range 1 4))
  in
  QCheck.Test.make ~name:"fit = plain scan" ~count:100
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 3) arb_input)
       (QCheck.int_range 3 300))
    (fun (inputs, horizon) ->
      let stream (period, jitter, burst) =
        if burst = 1 then
          Stream.periodic_jitter ~name:"j" ~period ~jitter ~d_min:0 ()
        else
          Stream.periodic_burst ~name:"b" ~period:(period * burst) ~burst
            ~d_min:(jitter mod period)
      in
      let s = Event_model.Combine.or_combine (List.map stream inputs) in
      Sem.equal (Sem.fit ~horizon s) (plain_fit ~horizon s))

let () =
  Alcotest.run "sem"
    [
      ( "closed forms",
        [
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "periodic shortcut" `Quick test_periodic_shortcut;
          Alcotest.test_case "delta" `Quick test_delta_closed_forms;
          Alcotest.test_case "eta vs stream" `Quick test_eta_closed_vs_stream;
          Alcotest.test_case "to_stream names" `Quick test_to_stream_name;
        ] );
      ( "representation",
        [ Alcotest.test_case "of SEM" `Quick test_of_sem_representation ] );
      ( "fit",
        [
          Alcotest.test_case "roundtrip" `Quick test_fit_roundtrip;
          Alcotest.test_case "dominates" `Quick test_fit_dominates;
          Alcotest.test_case "rejects finite" `Quick
            test_fit_rejects_finite_streams;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closed_eta_plus_matches;
            prop_closed_eta_minus_matches;
            prop_fit_conservative;
            prop_fit_equals_plain_scan;
          ] );
    ]
