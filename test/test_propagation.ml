(* Tests for the pluggable output-model propagation family: sanitizers,
   dominance ordering, mode invariance on jitter-free inputs, agreement
   of the compact and table curves with a closure reference (on compact,
   closure-backed, OR-combined and eventually infinite inputs), and the
   shaper routing regression. *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Curve = Event_model.Curve
module Propagation = Event_model.Propagation
module Shaper = Event_model.Shaper

let time = Alcotest.testable Time.pp Time.equal

(* 32768 and 40000 lie past the dense prefix of the table backend, so
   they reach the pointwise spill path of the derived curves *)
let probe_ns =
  [ 2; 3; 4; 5; 7; 11; 16; 33; 64; 100; 257; 1000; 4001; 32768; 40000 ]

(* ------------------------------------------------------------------ *)
(* Generators *)

let arb_stream =
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
  let compact = choose [ jittered; bursty ] in
  (* the same distances behind a closure, so derive takes its table path *)
  let closure s =
    Stream.make ~name:"c" ~delta_min:(Stream.delta_min s)
      ~delta_plus:(Stream.delta_plus s)
  in
  (* infinite distances past event [k]: at most [k] events ever arrive *)
  let finite_until (k, s) =
    let cut f n = if n > k then Time.Inf else f n in
    Stream.make ~name:"f" ~delta_min:(cut (Stream.delta_min s))
      ~delta_plus:(cut (Stream.delta_plus s))
  in
  frequency
    [
      2, compact;
      1, map closure compact;
      1, map (fun (a, b) -> Event_model.Combine.or_combine [ a; b ])
           (pair compact compact);
      1, map finite_until (pair (int_range 6 300) compact);
    ]

let arb_response =
  QCheck.map
    (fun (lo, w) -> Interval.make ~lo ~hi:(lo + w))
    QCheck.(pair (int_range 0 40) (int_range 0 60))

(* bmin at most r-, as for analysed elements (both come from the same
   response interval) *)
let arb_case =
  QCheck.map
    (fun ((s, r), b) -> s, r, Stdlib.min b (Interval.lo r))
    QCheck.(pair (pair arb_stream arb_response) (int_range 0 40))

(* A plausible busy-window completion profile for a response interval:
   q activations finishing at [r+ + (q-1) * r-], arriving at the input's
   earliest times.  Validity (not tightness) is what the sanitizer
   properties need. *)
let profile_for s r q_max =
  let fin = Interval.hi r and r_minus = Interval.lo r in
  let arr q =
    match Stream.delta_min s q with
    | Time.Fin d -> d
    | Time.Inf -> assert false
  in
  Propagation.profile
    ~arrivals:(Array.init q_max (fun i -> arr (i + 1)))
    ~finishes:
      (Array.init q_max (fun i ->
           Stdlib.max (arr (i + 1) + r_minus) (fin + (i * r_minus))))

let arb_profiled_case =
  QCheck.map
    (fun ((s, r, b), q) -> s, r, b, profile_for s r q)
    QCheck.(pair arb_case (int_range 1 4))

(* ------------------------------------------------------------------ *)
(* Properties *)

let derive_all (s, r, b, p) =
  List.map
    (fun mode ->
      mode, Propagation.derive ~mode ~response:r ~bmin:b ~profile:p s)
    Propagation.all_modes

let prop_sanitizers =
  (* every mode yields a well-formed stream: both curves monotone,
     delta_min non-negative.  (dmin <= dplus does NOT hold in general:
     an overloaded element — r- above the input rate — serializes its
     output faster than events can arrive; the engine reports overload
     separately.) *)
  QCheck.Test.make ~name:"all modes: monotone, dmin >= 0" ~count:80
    arb_profiled_case (fun case ->
      List.for_all
        (fun (_, out) ->
          List.for_all
            (fun n ->
              Time.(Stream.delta_min out n >= Time.zero)
              && Time.(Stream.delta_min out n <= Stream.delta_min out (n + 1))
              && Time.(Stream.delta_plus out n <= Stream.delta_plus out (n + 1)))
            probe_ns)
        (derive_all case))

let prop_optimal_dominates =
  (* optimal is pointwise at least as tight as every mode: its minimum
     distances are the largest, its maximum distances no larger *)
  QCheck.Test.make ~name:"optimal dominates every mode" ~count:80
    arb_profiled_case (fun case ->
      let outs = derive_all case in
      let optimal = List.assoc Propagation.Optimal outs in
      List.for_all
        (fun (_, out) ->
          List.for_all
            (fun n ->
              Time.(Stream.delta_min optimal n >= Stream.delta_min out n)
              && Time.(Stream.delta_plus optimal n <= Stream.delta_plus out n))
            probe_ns)
        outs)

let prop_offset_refines_jitter =
  (* the serialization floor only tightens the plain jitter mode *)
  QCheck.Test.make ~name:"jitter_offset >= jitter" ~count:80 arb_profiled_case
    (fun (s, r, b, p) ->
      let j =
        Propagation.derive ~mode:Jitter ~response:r ~bmin:b ~profile:p s
      in
      let jo =
        Propagation.derive ~mode:Jitter_offset ~response:r ~bmin:b ~profile:p s
      in
      List.for_all
        (fun n -> Time.(Stream.delta_min jo n >= Stream.delta_min j n))
        probe_ns)

let prop_mode_invariance_periodic =
  (* jitter-free periodic input, point response: zero spread, so every
     mode degenerates to the same shifted stream *)
  QCheck.Test.make ~name:"point response on periodic: all modes agree"
    ~count:60
    QCheck.(pair (int_range 1 300) (int_range 0 40))
    (fun (period, rt) ->
      let period = Stdlib.max 1 period in
      (* a point response keeps spread 0; with rt <= period the element
         keeps up, so no floor binds and every mode collapses to the
         input distances *)
      let rt = Stdlib.min rt period in
      let s = Stream.periodic ~name:"p" ~period in
      let r = Interval.point rt in
      let outs = derive_all (s, r, rt, profile_for s r 1) in
      let reference = List.assoc Propagation.Theta_tau outs in
      List.for_all
        (fun (_, out) ->
          List.for_all
            (fun n ->
              Time.equal (Stream.delta_min out n) (Stream.delta_min reference n)
              && Time.equal (Stream.delta_plus out n)
                   (Stream.delta_plus reference n))
            probe_ns)
        outs)

(* Reference closure-only recomputation of each mode's minimum-distance
   curve, independent of the compact construction in [derive]. *)
let reference_delta_min ~mode ~r ~bmin ~profile s n =
  let r_minus = Interval.lo r and spread = Interval.width r in
  let jit =
    Time.sub_clamped (Stream.delta_min s n) (Time.of_int spread)
  in
  let floor rate = Time.of_int ((n - 1) * rate) in
  let bw () =
    let q_max = Array.length profile.Propagation.finishes in
    let best = ref Time.Inf in
    for q = 1 to q_max do
      let c =
        match Stream.delta_min s (n + q - 1) with
        | Time.Inf -> Time.Inf
        | Time.Fin d -> Time.of_int (d - profile.Propagation.finishes.(q - 1))
      in
      best := Time.min !best c
    done;
    Time.add !best (Time.of_int r_minus)
  in
  match mode with
  | Propagation.Theta_tau | Propagation.Optimal -> assert false
  | Propagation.Jitter -> Time.max Time.zero jit
  | Propagation.Jitter_offset -> Time.max (floor r_minus) jit
  | Propagation.Jitter_bmin -> Time.max (floor bmin) jit
  | Propagation.Busy_window ->
    Time.max (Time.max (floor r_minus) jit) (bw ())

let prop_compact_matches_reference =
  (* the compact verified-window construction and the table kernel must
     agree with a direct closure recomputation everywhere, deep probes
     included *)
  QCheck.Test.make ~name:"compact derive = reference closure" ~count:120
    arb_profiled_case (fun (s, r, b, p) ->
      List.for_all
        (fun mode ->
          let out =
            Propagation.derive ~mode ~response:r ~bmin:b ~profile:p s
          in
          List.for_all
            (fun n ->
              Time.equal (Stream.delta_min out n)
                (reference_delta_min ~mode ~r ~bmin:b ~profile:p s n)
              && Time.equal (Stream.delta_plus out n)
                   (Time.add (Stream.delta_plus s n)
                      (Time.of_int (Interval.width r))))
            probe_ns)
        [ Propagation.Jitter; Propagation.Jitter_offset;
          Propagation.Jitter_bmin; Propagation.Busy_window ])

let prop_optimal_is_pointwise_max =
  QCheck.Test.make ~name:"optimal = pointwise max of modes" ~count:80
    arb_profiled_case (fun (s, r, b, p) ->
      let opt =
        Propagation.derive ~mode:Optimal ~response:r ~bmin:b ~profile:p s
      in
      let theta = Event_model.Task_op.output ~response:r s in
      List.for_all
        (fun n ->
          let expected =
            List.fold_left
              (fun acc mode ->
                Time.max acc
                  (reference_delta_min ~mode ~r ~bmin:b ~profile:p s n))
              (Stream.delta_min theta n)
              [ Propagation.Jitter; Propagation.Jitter_offset;
                Propagation.Jitter_bmin; Propagation.Busy_window ]
          in
          Time.equal (Stream.delta_min opt n) expected)
        probe_ns)

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_mode_names_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Propagation.mode_name m) true
        (Propagation.mode_of_name (Propagation.mode_name m) = Some m))
    Propagation.all_modes;
  Alcotest.(check bool) "unknown" true (Propagation.mode_of_name "x" = None)

let test_profile_validation () =
  let rejected a f =
    match Propagation.profile ~arrivals:a ~finishes:f with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "length mismatch" true (rejected [| 0 |] [| 1; 2 |]);
  Alcotest.(check bool) "empty" true (rejected [||] [||]);
  Alcotest.(check bool) "finish < arrival" true (rejected [| 5 |] [| 3 |]);
  Alcotest.(check bool) "non-monotone" true
    (rejected [| 0; 10 |] [| 20; 15 |]);
  Alcotest.(check bool) "valid accepted" true
    (match Propagation.profile ~arrivals:[| 0; 10 |] ~finishes:[| 8; 18 |] with
     | _ -> true
     | exception Invalid_argument _ -> false)

let test_busy_window_periodic_no_gain () =
  (* On a strictly periodic input the busy-window term collapses onto
     the jitter term: for d m = (m-1) P the candidate at the wcrt
     position q* equals d n - J exactly and every other q is no
     smaller, so busy_window = jitter_offset. *)
  let s = Stream.periodic ~name:"p" ~period:10 in
  let r = Interval.make ~lo:2 ~hi:14 in
  let p = Propagation.profile ~arrivals:[| 0; 10 |] ~finishes:[| 12; 24 |] in
  let bw =
    Propagation.derive ~mode:Busy_window ~response:r ~bmin:2 ~profile:p s
  in
  let jo =
    Propagation.derive ~mode:Jitter_offset ~response:r ~bmin:2 ~profile:p s
  in
  List.iter
    (fun n ->
      Alcotest.check time
        (Printf.sprintf "bw = jitter_offset at %d" n)
        (Stream.delta_min jo n) (Stream.delta_min bw n))
    [ 2; 3; 4; 8; 100 ]

let test_busy_window_strictly_tighter () =
  (* The busy-window refinement wins when the wcrt is attained at
     q >= 2 on a jittery input.  Input: periodic 100 with jitter 150
     (d 2 = 0, d 3 = 50, d 4 = 150, d 5 = 250); window arrivals [0; 0],
     finishes [30; 60], so wcrt = 60 at q = 2 and r = [2:60], J = 58.

     n = 3: theta recursion max (50 - 58) (d' 2 + 2) = 4;
            bw term min (d 3 - 30, d 4 - 60) + 2 = min (20, 90) + 2 = 22.
     n = 4: theta max (150 - 58) (d' 3 + 2) = 92;
            bw min (d 4 - 30, d 5 - 60) + 2 = min (120, 190) + 2 = 122. *)
  let s =
    Stream.periodic_jitter ~name:"pj" ~period:100 ~jitter:150 ~d_min:0 ()
  in
  let r = Interval.make ~lo:2 ~hi:60 in
  let p = Propagation.profile ~arrivals:[| 0; 0 |] ~finishes:[| 30; 60 |] in
  let bw =
    Propagation.derive ~mode:Busy_window ~response:r ~bmin:2 ~profile:p s
  in
  let theta = Propagation.derive ~mode:Theta_tau ~response:r ~bmin:2 s in
  Alcotest.check time "theta n=3" (Time.of_int 4) (Stream.delta_min theta 3);
  Alcotest.check time "bw strictly tighter n=3" (Time.of_int 22)
    (Stream.delta_min bw 3);
  Alcotest.check time "theta n=4" (Time.of_int 92) (Stream.delta_min theta 4);
  Alcotest.check time "bw strictly tighter n=4" (Time.of_int 122)
    (Stream.delta_min bw 4);
  let opt =
    Propagation.derive ~mode:Optimal ~response:r ~bmin:2 ~profile:p s
  in
  Alcotest.check time "optimal inherits the win" (Time.of_int 122)
    (Stream.delta_min opt 4)

let test_compact_backend_used () =
  (* derived outputs on compact periodic inputs must themselves be
     compact — this is what routes Shaper.delay_bound onto its exact
     periodic-tail branch *)
  let s = Stream.periodic_jitter ~name:"in" ~period:250 ~jitter:600 () in
  let r = Interval.make ~lo:5 ~hi:30 in
  List.iter
    (fun mode ->
      let out = Propagation.derive ~mode ~response:r ~bmin:5 s in
      Alcotest.(check bool)
        (Propagation.mode_name mode ^ " delta_min compact")
        true
        (Option.is_some (Curve.periodic_tail (Stream.delta_min_curve out)));
      Alcotest.(check bool)
        (Propagation.mode_name mode ^ " delta_plus compact")
        true
        (Option.is_some (Curve.periodic_tail (Stream.delta_plus_curve out))))
    Propagation.all_modes

let test_shaper_exact_on_derived_stream () =
  (* Regression (PR 4 family, routed through propagation): an output
     stream whose long-run rate exactly matches the shaper distance and
     whose derived jitter exceeds the old slope heuristic's horizon
     slack (jitter > 2047 * period for the 4096 horizon).  The closure
     fallback misclassified this as unbounded; the compact periodic
     tail makes delay_bound exact. *)
  let s = Stream.periodic ~name:"p" ~period:4 in
  let r = Interval.make ~lo:2 ~hi:10002 in
  (* J = 10000 > 2047 * 4 *)
  let out = Propagation.derive ~mode:Jitter ~response:r ~bmin:2 s in
  Alcotest.(check bool) "derived stream is compact" true
    (Option.is_some (Curve.periodic_tail (Stream.delta_min_curve out)));
  Alcotest.check time "delay bound = jitter backlog" (Time.of_int 10000)
    (Shaper.delay_bound ~d:4 out);
  (* same family, moderate jitter, against an independent deficit scan *)
  let r = Interval.make ~lo:2 ~hi:3002 in
  let out = Propagation.derive ~mode:Jitter_offset ~response:r ~bmin:2 s in
  let naive =
    let rec scan q worst =
      if q > 2000 then worst
      else
        match Stream.delta_min out q with
        | Time.Inf -> worst
        | Time.Fin dist -> scan (q + 1) (Stdlib.max worst (((q - 1) * 4) - dist))
    in
    scan 2 0
  in
  Alcotest.check time "delay bound = naive deficit" (Time.of_int naive)
    (Shaper.delay_bound ~d:4 out)

let () =
  Alcotest.run "propagation"
    [
      ( "modes",
        [
          Alcotest.test_case "mode names roundtrip" `Quick
            test_mode_names_roundtrip;
          Alcotest.test_case "profile validation" `Quick
            test_profile_validation;
          Alcotest.test_case "busy window on periodic input" `Quick
            test_busy_window_periodic_no_gain;
          Alcotest.test_case "busy window strictly tighter (q >= 2)" `Quick
            test_busy_window_strictly_tighter;
          Alcotest.test_case "compact backend used" `Quick
            test_compact_backend_used;
          Alcotest.test_case "shaper exact on derived streams" `Quick
            test_shaper_exact_on_derived_stream;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sanitizers;
            prop_optimal_dominates;
            prop_offset_refines_jitter;
            prop_mode_invariance_periodic;
            prop_compact_matches_reference;
            prop_optimal_is_pointwise_max;
          ] );
    ]
