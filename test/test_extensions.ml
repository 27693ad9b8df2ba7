(* Tests for the framework extensions beyond the paper's scope: EDF local
   analysis, activation backlog bounds (buffer sizing), and sensitivity
   analysis — each validated against hand computations and, for backlog,
   against simulator observations. *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Rt_task = Scheduling.Rt_task
module Busy_window = Scheduling.Busy_window
module Edf = Scheduling.Edf
module Spp = Scheduling.Spp
module Spnp = Scheduling.Spnp
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Sensitivity = Explore.Sensitivity

let task ~name ~cet ~priority ~period ?(jitter = 0) () =
  Rt_task.make ~name ~cet:(Interval.point cet) ~priority
    ~activation:
      (Stream.periodic_jitter ~name:(name ^ ".act") ~period ~jitter ())

(* ------------------------------------------------------------------ *)
(* EDF *)

let test_edf_demand_bound () =
  let tasks =
    [
      { Edf.task = task ~name:"a" ~cet:3 ~priority:1 ~period:20 (); deadline = 10 };
      { Edf.task = task ~name:"b" ~cet:5 ~priority:1 ~period:50 (); deadline = 40 };
    ]
  in
  Alcotest.(check (result int string)) "dt=9" (Ok 0) (Edf.demand_bound tasks 9);
  Alcotest.(check (result int string)) "dt=10" (Ok 3) (Edf.demand_bound tasks 10);
  (* dt=40: a jobs with deadline <= 40 arrive in [0, 30]: eta(31) = 2; b: 1 *)
  Alcotest.(check (result int string)) "dt=40" (Ok (6 + 5))
    (Edf.demand_bound tasks 40)

let test_edf_schedulable_set () =
  let tasks =
    [
      { Edf.task = task ~name:"a" ~cet:3 ~priority:1 ~period:10 (); deadline = 10 };
      { Edf.task = task ~name:"b" ~cet:4 ~priority:1 ~period:15 (); deadline = 15 };
      { Edf.task = task ~name:"c" ~cet:4 ~priority:1 ~period:30 (); deadline = 30 };
    ]
  in
  (* utilisation = 0.3 + 0.267 + 0.133 = 0.7, implicit deadlines: feasible *)
  Alcotest.(check bool) "schedulable" true (Edf.schedulable tasks = Ok ());
  List.iter
    (fun (rt, outcome) ->
      match outcome with
      | Busy_window.Bounded r ->
        Alcotest.(check bool)
          (rt.Rt_task.name ^ " bounded by deadline")
          true
          (Interval.hi r
          <= (List.find (fun t -> t.Edf.task == rt) tasks).Edf.deadline)
      | Busy_window.Unbounded _ -> Alcotest.fail "expected bounded")
    (Edf.analyse tasks)

let test_edf_constrained_deadline_fails () =
  (* same set but a deadline below c's own execution time breaks it *)
  let tasks =
    [
      { Edf.task = task ~name:"a" ~cet:3 ~priority:1 ~period:10 (); deadline = 10 };
      { Edf.task = task ~name:"b" ~cet:4 ~priority:1 ~period:15 (); deadline = 15 };
      { Edf.task = task ~name:"c" ~cet:4 ~priority:1 ~period:30 (); deadline = 3 };
    ]
  in
  Alcotest.(check bool) "infeasible" true
    (match Edf.schedulable tasks with Error _ -> true | Ok () -> false);
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | Busy_window.Unbounded _ -> ()
      | Busy_window.Bounded _ -> Alcotest.fail "expected unbounded")
    (Edf.analyse tasks)

let test_edf_overload () =
  let tasks =
    [
      { Edf.task = task ~name:"a" ~cet:6 ~priority:1 ~period:10 (); deadline = 10 };
      { Edf.task = task ~name:"b" ~cet:6 ~priority:1 ~period:10 (); deadline = 10 };
    ]
  in
  Alcotest.(check bool) "busy period diverges" true
    (match Edf.busy_period tasks with Error _ -> true | Ok _ -> false)

let test_edf_engine_integration () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Edf; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"cpu" ~cet:(Interval.point 30)
            ~priority:1 ~deadline:80 ~activation:(Spec.From_source "s") ();
          Spec.task ~name:"t2" ~resource:"cpu" ~cet:(Interval.point 40)
            ~priority:2 ~deadline:100 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  match Engine.analyse spec with
  | Error e -> Alcotest.failf "unexpected error: %s" (Guard.Error.to_string e)
  | Ok result ->
    Alcotest.(check bool) "converged" true result.Engine.converged;
    Alcotest.(check (option int)) "t1 bounded by deadline" (Some 80)
      (Option.map Interval.hi (Engine.response result "t1"))

let test_edf_engine_requires_deadline () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Edf; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"cpu" ~cet:(Interval.point 30)
            ~priority:1 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  Alcotest.(check bool) "validation error" true
    (match Engine.analyse spec with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* backlog bounds *)

let test_spp_backlog_single () =
  (* an undisturbed task never queues more than one activation *)
  let t = task ~name:"solo" ~cet:3 ~priority:1 ~period:10 () in
  Alcotest.(check (result int string)) "single" (Ok 1)
    (Spp.backlog_bound ~task:t ~others:[] ())

let test_spp_backlog_bursty () =
  (* jitter releases a burst of 3 together; each takes 5 to clear *)
  let bursty = task ~name:"bursty" ~cet:5 ~priority:1 ~period:100 ~jitter:250 () in
  match Spp.backlog_bound ~task:bursty ~others:[] () with
  | Ok depth -> Alcotest.(check bool) "at least the burst" true (depth >= 3)
  | Error e -> Alcotest.failf "unexpected: %s" e

let test_spp_backlog_with_interference () =
  let hp = task ~name:"hp" ~cet:40 ~priority:1 ~period:100 () in
  let lp = task ~name:"lp" ~cet:30 ~priority:2 ~period:50 () in
  (* lp is blocked 40 out of every 100 and needs 60/100 itself: close to
     saturation, the busy period spans several activations *)
  match Spp.backlog_bound ~task:lp ~others:[ hp ] () with
  | Ok depth -> Alcotest.(check bool) "queues at least 2" true (depth >= 2)
  | Error e -> Alcotest.failf "unexpected: %s" e

let test_spnp_backlog_paper_frame () =
  (* F1: two simultaneous triggers queue behind each other *)
  let f1_act =
    Event_model.Combine.or_combine
      [
        Stream.periodic ~name:"S1" ~period:250;
        Stream.periodic ~name:"S2" ~period:450;
      ]
  in
  let f1 =
    Rt_task.make ~name:"F1" ~cet:(Interval.point 4) ~priority:1
      ~activation:f1_act
  in
  let f2 =
    Rt_task.make ~name:"F2" ~cet:(Interval.point 2) ~priority:2
      ~activation:(Stream.periodic ~name:"S4" ~period:400)
  in
  Alcotest.(check (result int string)) "F1 queue depth" (Ok 2)
    (Spnp.backlog_bound ~task:f1 ~others:[ f2 ] ())

let test_backlog_observed_within_bound () =
  (* paper system: analytic queue bounds dominate simulated depths *)
  let spec = Scenarios.Paper_system.spec () in
  let generators = Scenarios.Paper_system.generators () in
  match Des.Simulator.run ~generators ~horizon:500_000 spec with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    (* bound for F1 computed above = 2 *)
    (match Des.Trace.max_queue_depth trace "F1" with
     | Some depth -> Alcotest.(check bool) "F1 depth <= 2" true (depth <= 2)
     | None -> Alcotest.fail "no depth recorded");
    (* CPU tasks are activated once per signal and finish before the
       next: depth 1 *)
    List.iter
      (fun name ->
        match Des.Trace.max_queue_depth trace name with
        | Some depth ->
          Alcotest.(check bool) (name ^ " depth 1") true (depth = 1)
        | None -> Alcotest.fail "no depth recorded")
      Scenarios.Paper_system.cpu_tasks

(* ------------------------------------------------------------------ *)
(* sensitivity *)

let test_sensitivity_schedulable () =
  Alcotest.(check bool) "paper system schedulable" true
    (Sensitivity.schedulable (Scenarios.Paper_system.spec ()));
  Alcotest.(check bool) "overload detected" false
    (Sensitivity.schedulable
       (Spec.make
          ~sources:[ "s", Stream.periodic ~name:"s" ~period:10 ]
          ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
          ~tasks:
            [
              Spec.task ~name:"t" ~resource:"cpu" ~cet:(Interval.point 20)
                ~priority:1 ~activation:(Spec.From_source "s") ();
            ]
          ()))

let test_scale_cet () =
  let spec = Scenarios.Paper_system.spec () in
  let scaled = Explore.Space.scale_cet spec ~task:"T3" ~percent:200 in
  let t3 =
    List.find (fun (k : Spec.task) -> k.task_name = "T3") scaled.Spec.tasks
  in
  Alcotest.(check int) "doubled" 80 (Interval.hi t3.Spec.cet);
  Alcotest.(check bool) "unknown task" true
    (match Explore.Space.scale_cet spec ~task:"nope" ~percent:150 with
     | _ -> false
     | exception Not_found -> true)

let test_max_cet_scale () =
  let spec = Scenarios.Paper_system.spec () in
  match
    Sensitivity.max_cet_scale ~build:Scenarios.Paper_system.spec ~task:"T3" ()
  with
  | None -> Alcotest.fail "system should start schedulable"
  | Some pct ->
    Alcotest.(check bool) "has headroom" true (pct > 100);
    (* the bound is tight: one step beyond must fail *)
    Alcotest.(check bool) "tight" false
      (Sensitivity.schedulable
         (Explore.Space.scale_cet spec ~task:"T3" ~percent:(pct + 1)))

let test_min_source_period () =
  let rebuild period = Scenarios.Paper_system.spec ~s3_period:period () in
  (* S3 is pending: it adds CPU load via T3 activations; find the fastest
     sustainable S3 *)
  match
    Sensitivity.min_source_period ~rebuild ~lo:1 ~hi:1000 ()
  with
  | None -> Alcotest.fail "1000 must be schedulable"
  | Some p ->
    Alcotest.(check bool) "found" true (p >= 1 && p <= 1000);
    Alcotest.(check bool) "boundary holds" true
      (Sensitivity.schedulable (rebuild p))

let () =
  Alcotest.run "extensions"
    [
      ( "edf",
        [
          Alcotest.test_case "demand bound" `Quick test_edf_demand_bound;
          Alcotest.test_case "schedulable set" `Quick test_edf_schedulable_set;
          Alcotest.test_case "constrained deadline" `Quick
            test_edf_constrained_deadline_fails;
          Alcotest.test_case "overload" `Quick test_edf_overload;
          Alcotest.test_case "engine integration" `Quick
            test_edf_engine_integration;
          Alcotest.test_case "deadline required" `Quick
            test_edf_engine_requires_deadline;
        ] );
      ( "backlog",
        [
          Alcotest.test_case "single task" `Quick test_spp_backlog_single;
          Alcotest.test_case "bursty task" `Quick test_spp_backlog_bursty;
          Alcotest.test_case "with interference" `Quick
            test_spp_backlog_with_interference;
          Alcotest.test_case "paper frame queue" `Quick
            test_spnp_backlog_paper_frame;
          Alcotest.test_case "observed within bound" `Quick
            test_backlog_observed_within_bound;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "schedulable" `Quick test_sensitivity_schedulable;
          Alcotest.test_case "scale cet" `Quick test_scale_cet;
          Alcotest.test_case "max cet scale" `Quick test_max_cet_scale;
          Alcotest.test_case "min source period" `Quick test_min_source_period;
        ] );
    ]
