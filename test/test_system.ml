(* Tests for the global compositional analysis engine: specification
   validation, fixed-point iteration, flat vs hierarchical modes, and the
   regression of the paper's evaluation system (Tables 1-3). *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Report = Cpa_system.Report

let interval = Alcotest.testable Interval.pp Interval.equal

let check_response result name expected =
  Alcotest.(check (option interval)) name (Some expected)
    (Engine.response result name)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* simple systems *)

let single_cpu_chain () =
  (* source -> producer -> consumer on one CPU *)
  Spec.make
    ~sources:[ "src", Stream.periodic ~name:"src" ~period:100 ]
    ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
    ~tasks:
      [
        Spec.task ~name:"producer" ~resource:"cpu" ~cet:(Interval.point 10)
          ~priority:1 ~activation:(Spec.From_source "src") ();
        Spec.task ~name:"consumer" ~resource:"cpu" ~cet:(Interval.point 20)
          ~priority:2 ~activation:(Spec.From_output "producer") ();
      ]
    ()

let test_chain_analysis () =
  let result = ok (Engine.analyse (single_cpu_chain ())) in
  Alcotest.(check bool) "converged" true result.Engine.converged;
  check_response result "producer" (Interval.point 10);
  (* consumer: preempted once per period: 20 + 10 = 30 *)
  check_response result "consumer" (Interval.make ~lo:20 ~hi:30)

let test_path_latency () =
  let result = ok (Engine.analyse (single_cpu_chain ())) in
  Alcotest.(check (option interval)) "path" (Some (Interval.make ~lo:30 ~hi:40))
    (Report.path_latency result [ "producer"; "consumer" ]);
  Alcotest.(check (option interval)) "unknown element raises Not_found" None
    (try Report.path_latency result [ "producer"; "nope" ]
     with Not_found -> None)

let test_or_activation () =
  let spec =
    Spec.make
      ~sources:
        [
          "a", Stream.periodic ~name:"a" ~period:100;
          "b", Stream.periodic ~name:"b" ~period:150;
        ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t" ~resource:"cpu" ~cet:(Interval.point 5)
            ~priority:1
            ~activation:(Spec.Or_of [ Spec.From_source "a"; Spec.From_source "b" ])
            ();
        ]
      ()
  in
  let result = ok (Engine.analyse spec) in
  (* two simultaneous activations: second finishes after 10 *)
  check_response result "t" (Interval.make ~lo:5 ~hi:10)

let test_validation_errors () =
  let bad_resource =
    Spec.make ~sources:[]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t" ~resource:"nope" ~cet:(Interval.point 1)
            ~priority:1 ~activation:(Spec.From_source "missing") ();
        ]
      ()
  in
  Alcotest.(check bool) "unknown resource" true
    (match Engine.analyse bad_resource with Error _ -> true | Ok _ -> false);
  let bad_source =
    Spec.make ~sources:[]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t" ~resource:"cpu" ~cet:(Interval.point 1)
            ~priority:1 ~activation:(Spec.From_source "missing") ();
        ]
      ()
  in
  Alcotest.(check bool) "unknown source" true
    (match Engine.analyse bad_source with Error _ -> true | Ok _ -> false);
  let duplicate =
    Spec.make
      ~sources:[ "x", Stream.periodic ~name:"x" ~period:10 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"x" ~resource:"cpu" ~cet:(Interval.point 1)
            ~priority:1 ~activation:(Spec.From_source "x") ();
        ]
      ()
  in
  Alcotest.(check bool) "duplicate names" true
    (match Engine.analyse duplicate with Error _ -> true | Ok _ -> false)

let test_cycle_detected () =
  let spec =
    Spec.make ~sources:[]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"a" ~resource:"cpu" ~cet:(Interval.point 1)
            ~priority:1 ~activation:(Spec.From_output "b") ();
          Spec.task ~name:"b" ~resource:"cpu" ~cet:(Interval.point 1)
            ~priority:2 ~activation:(Spec.From_output "a") ();
        ]
      ()
  in
  Alcotest.(check bool) "cycle error" true
    (match Engine.analyse spec with
     | Error (Guard.Error.Cycle _) -> true
     | Error _ | Ok _ -> false)

let test_overload_reported () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:10 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"cpu" ~cet:(Interval.point 6)
            ~priority:1 ~activation:(Spec.From_source "s") ();
          Spec.task ~name:"t2" ~resource:"cpu" ~cet:(Interval.point 6)
            ~priority:2 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  let result = ok (Engine.analyse spec) in
  Alcotest.(check bool) "not converged" false result.Engine.converged;
  Alcotest.(check (option interval)) "t2 unbounded" None
    (Engine.response result "t2")

let test_tdma_resource () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
      ~resources:[ { Spec.res_name = "bus"; scheduler = Spec.Tdma; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"bus" ~cet:(Interval.point 2)
            ~priority:1 ~service:3 ~activation:(Spec.From_source "s") ();
          Spec.task ~name:"t2" ~resource:"bus" ~cet:(Interval.point 4)
            ~priority:1 ~service:5 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  let result = ok (Engine.analyse spec) in
  check_response result "t1" (Interval.make ~lo:2 ~hi:7);
  check_response result "t2" (Interval.make ~lo:4 ~hi:7)

let test_tdma_requires_service () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
      ~resources:[ { Spec.res_name = "bus"; scheduler = Spec.Tdma; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"bus" ~cet:(Interval.point 2)
            ~priority:1 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  Alcotest.(check bool) "missing service" true
    (match Engine.analyse spec with Error _ -> true | Ok _ -> false)

let test_round_robin_resource () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Round_robin; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"t1" ~resource:"cpu" ~cet:(Interval.point 4)
            ~priority:1 ~service:2 ~activation:(Spec.From_source "s") ();
          Spec.task ~name:"t2" ~resource:"cpu" ~cet:(Interval.point 6)
            ~priority:1 ~service:3 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  let result = ok (Engine.analyse spec) in
  check_response result "t1" (Interval.make ~lo:4 ~hi:10);
  check_response result "t2" (Interval.make ~lo:6 ~hi:10)

(* ------------------------------------------------------------------ *)
(* the paper's system (section 6) *)

let test_paper_regression_flat () =
  let flat, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  Alcotest.(check bool) "flat converged" true flat.Engine.converged;
  Alcotest.(check bool) "hem converged" true hem.Engine.converged;
  (* bus responses are mode-independent *)
  check_response flat "F1" (Interval.make ~lo:4 ~hi:10);
  check_response flat "F2" (Interval.make ~lo:2 ~hi:10);
  check_response hem "F1" (Interval.make ~lo:4 ~hi:10);
  (* hierarchical CPU responses (hand-checked against Defs. 8-10) *)
  check_response hem "T1" (Interval.point 24);
  check_response hem "T2" (Interval.make ~lo:32 ~hi:56);
  check_response hem "T3" (Interval.make ~lo:40 ~hi:96)

let test_paper_hem_dominates_flat () =
  let flat, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  List.iter
    (fun name ->
      match Engine.response flat name, Engine.response hem name with
      | Some f, Some h ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: hem <= flat" name)
          true
          (Interval.hi h <= Interval.hi f)
      | _ -> Alcotest.failf "missing response for %s" name)
    Scenarios.Paper_system.cpu_tasks

let test_paper_reduction_grows_with_lower_priority () =
  (* the paper's Table 3 shape: lower-priority receivers gain more *)
  let flat, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  let rows =
    Report.compare_results ~baseline:flat ~improved:hem
      ~names:Scenarios.Paper_system.cpu_tasks
  in
  let pcts =
    List.map
      (fun (r : Report.comparison_row) ->
        match r.reduction_pct with
        | Some p -> p
        | None -> Alcotest.failf "no reduction for %s" r.name)
      rows
  in
  (match pcts with
   | [ p1; _; p3 ] ->
     Alcotest.(check bool) "all positive" true (List.for_all (fun p -> p > 0.0) pcts);
     Alcotest.(check bool) "T3 gains most" true (p3 >= p1)
   | _ -> Alcotest.fail "expected three rows")

let test_paper_flat_stream_mode () =
  (* exact-curve flat mode sits between SEM-flat and hierarchical *)
  let spec = Scenarios.Paper_system.spec () in
  let flat_sem = ok (Engine.analyse ~mode:Engine.Flat_sem spec) in
  let flat_stream = ok (Engine.analyse ~mode:Engine.Flat_stream spec) in
  let hem = ok (Engine.analyse ~mode:Engine.Hierarchical spec) in
  List.iter
    (fun name ->
      match
        ( Engine.response flat_sem name,
          Engine.response flat_stream name,
          Engine.response hem name )
      with
      | Some sem, Some stream, Some h ->
        Alcotest.(check bool)
          (Printf.sprintf "%s ordering" name)
          true
          (Interval.hi h <= Interval.hi stream
          && Interval.hi stream <= Interval.hi sem)
      | _ -> Alcotest.failf "missing response for %s" name)
    Scenarios.Paper_system.cpu_tasks

let test_paper_figure4_series () =
  (* Figure 4: eta+ of the frame output stream dominates each unpacked
     signal stream, and the unpacked streams are far below it *)
  let _, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  let frame_out =
    hem.Engine.resolve (Spec.From_frame "F1")
  in
  let unpacked signal =
    hem.Engine.resolve (Spec.From_signal { frame = "F1"; signal })
  in
  List.iter
    (fun dt ->
      let total = Stream.eta_plus frame_out dt in
      List.iter
        (fun signal ->
          let inner = Stream.eta_plus (unpacked signal) dt in
          Alcotest.(check bool)
            (Printf.sprintf "%s <= frame at %d" signal dt)
            true
            (Timebase.Count.compare inner total <= 0))
        [ "sig1"; "sig2"; "sig3" ])
    [ 100; 500; 1000; 2000; 4000 ]

let test_paper_s3_sweep () =
  (* slower pending sources only reduce the pending activation rate *)
  let r_at period =
    let _, hem = ok (Scenarios.Paper_system.analyse_both ~s3_period:period ()) in
    match Engine.response hem "T3" with
    | Some i -> Interval.hi i
    | None -> max_int
  in
  Alcotest.(check bool) "monotone in S3 period" true (r_at 2000 <= r_at 500)

let test_paper_iterations_reported () =
  let flat, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  Alcotest.(check bool) "flat iterations >= 1" true (flat.Engine.iterations >= 1);
  Alcotest.(check bool) "hem iterations >= 1" true (hem.Engine.iterations >= 1)

let test_and_activation () =
  let spec =
    Spec.make
      ~sources:
        [
          "a", Stream.periodic ~name:"a" ~period:100;
          "b", Stream.periodic_jitter ~name:"b" ~period:100 ~jitter:30 ();
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
  let result = ok (Engine.analyse spec) in
  Alcotest.(check bool) "converged" true result.Engine.converged;
  (* AND activation: at most one activation per input pair; the stream's
     conservative bounds still admit a tight burst, hence possibly two in
     one busy period *)
  (match Engine.response result "join" with
   | Some r -> Alcotest.(check bool) "bounded" true (Interval.hi r >= 5)
   | None -> Alcotest.fail "expected bounded");
  Alcotest.(check bool) "empty AND rejected" true
    (match
       Engine.analyse
         (Spec.make ~sources:[]
            ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
            ~tasks:
              [
                Spec.task ~name:"t" ~resource:"cpu" ~cet:(Interval.point 1)
                  ~priority:1 ~activation:(Spec.And_of []) ();
              ]
            ())
     with
     | Error _ -> true
     | Ok _ -> false)

let test_gateway_two_hop_regression () =
  let spec = Scenarios.Gateway.spec () in
  let flat = ok (Engine.analyse ~mode:Engine.Flat_sem spec) in
  let hem = ok (Engine.analyse ~mode:Engine.Hierarchical spec) in
  Alcotest.(check bool) "both converge" true
    (flat.Engine.converged && hem.Engine.converged);
  (* hand-checked hierarchical values *)
  check_response hem "G1" (Interval.make ~lo:4 ~hi:8);
  check_response hem "D1" (Interval.point 20);
  check_response hem "D2" (Interval.make ~lo:30 ~hi:50);
  (* the flat degradation compounds across the two hops *)
  List.iter
    (fun name ->
      match Engine.response flat name, Engine.response hem name with
      | Some f, Some h ->
        Alcotest.(check bool)
          (name ^ " hem tighter")
          true
          (Interval.hi h < Interval.hi f)
      | _ -> Alcotest.fail "missing response")
    Scenarios.Gateway.receivers;
  match Cpa_system.Report.path_latency hem Scenarios.Gateway.path_s1 with
  | Some latency ->
    Alcotest.(check bool) "path latency bounded" true (Interval.hi latency >= 33)
  | None -> Alcotest.fail "path unbounded"

let test_hierarchy_accessors () =
  let _, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  let pre = hem.Engine.pre_bus_hierarchy "F1" in
  let post = hem.Engine.hierarchy "F1" in
  (* the bus adds jitter: post-bus outer distances are tighter *)
  Alcotest.(check bool) "post <= pre at n=2" true
    Time.(
      Stream.delta_min (Hem.Model.outer post) 3
      <= Stream.delta_min (Hem.Model.outer pre) 3);
  Alcotest.(check int) "arity preserved" (Hem.Model.arity pre)
    (Hem.Model.arity post)

let test_periodic_frame_system () =
  (* a periodic frame: the timer paces transmissions, the data signal is
     effectively pending even though declared triggering *)
  let spec =
    Spec.make
      ~sources:[ "fast", Stream.periodic ~name:"fast" ~period:30 ]
      ~resources:
        [
          { Spec.res_name = "bus"; scheduler = Spec.Spnp; backend = Spec.Cpa };
          { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa };
        ]
      ~frames:
        [
          Spec.frame ~name:"P" ~bus:"bus"
            ~send_type:(Comstack.Frame.Periodic 100)
            ~tx_time:(Interval.point 4) ~priority:1
            ~signals:
              [ Spec.signal ~name:"data" ~origin:(Spec.From_source "fast") () ]
            ();
        ]
      ~tasks:
        [
          Spec.task ~name:"sink" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:1
            ~activation:(Spec.From_signal { frame = "P"; signal = "data" })
            ();
        ]
      ()
  in
  let result = ok (Engine.analyse ~mode:Engine.Hierarchical spec) in
  Alcotest.(check bool) "converged" true result.Engine.converged;
  (* the frame goes exactly every 100 despite the 30-periodic source *)
  check_response result "P" (Interval.point 4);
  check_response result "sink" (Interval.point 10);
  (* fresh data arrives at most once per frame period *)
  let sink_input =
    result.Engine.resolve (Spec.From_signal { frame = "P"; signal = "data" })
  in
  (* the bus response is jitter-free ([4:4]), so the delivery distance is
     exactly the timer period *)
  Alcotest.(check string) "delivery distance = timer period" "100"
    (Timebase.Time.to_string (Stream.delta_min sink_input 2));
  (* simulate: deliveries pace at the timer, never faster *)
  match
    Des.Simulator.run
      ~generators:[ "fast", Des.Gen.periodic ~period:30 () ]
      ~horizon:100_000 spec
  with
  | Error e -> Alcotest.failf "simulation failed: %s" e
  | Ok trace ->
    let deliveries =
      Des.Trace.arrivals trace (Des.Port.signal ~frame:"P" ~signal:"data")
    in
    Alcotest.(check bool) "about one per period" true
      (List.length deliveries >= 990 && List.length deliveries <= 1001);
    (match Des.Trace.worst_response trace "sink" with
     | Some observed -> Alcotest.(check bool) "within bound" true (observed <= 10)
     | None -> Alcotest.fail "sink never ran")

let test_from_frame_receiver () =
  (* a monitor task activated by every frame arrival (not per signal) *)
  let base = Scenarios.Paper_system.spec () in
  let spec =
    { base with
      Spec.tasks =
        base.Spec.tasks
        @ [
            Spec.task ~name:"monitor" ~resource:"CPU1" ~cet:(Interval.point 2)
              ~priority:0 ~activation:(Spec.From_frame "F1") ();
          ]
    }
  in
  let result = ok (Engine.analyse ~mode:Engine.Hierarchical spec) in
  Alcotest.(check bool) "converged" true result.Engine.converged;
  (* frame arrivals are serialized by the bus (at least r- = 4 apart), so
     the monitor finishes each 2-unit job before the next frame *)
  check_response result "monitor" (Interval.point 2)

let test_utilizations () =
  let _, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  let utils = Report.utilizations hem in
  let near label expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %.1f (got %.1f)" label expected actual)
      true
      (Float.abs (actual -. expected) < 1.5)
  in
  (* CAN: F1 = (1/250 + 1/450) * 4, F2 = 4/400 * 2... in percent:
     F1 ~ 2.49, F2 = 0.5 -> ~3.0; CPU: 24/250 + 32/450 + 40/1000 ~ 20.7 *)
  near "CAN" 3.0 (List.assoc "CAN" utils);
  near "CPU1" 20.7 (List.assoc "CPU1" utils)

let test_signal_data_age () =
  let _, hem = ok (Scenarios.Paper_system.analyse_both ()) in
  (* triggering signal: age = frame worst response = 10 *)
  Alcotest.(check (option string)) "sig1 age" (Some "10")
    (Option.map Time.to_string
       (Report.signal_data_age hem ~frame:"F1" ~signal:"sig1"));
  (* pending signal: frame gap delta_plus_out 2 = 250 plus response 10 *)
  Alcotest.(check (option string)) "sig3 age" (Some "260")
    (Option.map Time.to_string
       (Report.signal_data_age hem ~frame:"F1" ~signal:"sig3"));
  Alcotest.(check bool) "unknown signal raises" true
    (match Report.signal_data_age hem ~frame:"F1" ~signal:"zz" with
     | _ -> false
     | exception Not_found -> true)

(* ------------------------------------------------------------------ *)
(* robustness and properties *)

let test_max_iterations_cutoff () =
  (* limiting the iterations on a multi-iteration system yields a
     not-converged result instead of looping *)
  let spec = Scenarios.Gateway.spec () in
  let limited =
    ok (Engine.analyse ~mode:Engine.Flat_sem ~max_iterations:1 spec)
  in
  Alcotest.(check bool) "not converged" false limited.Engine.converged;
  Alcotest.(check int) "stopped at 1" 1 limited.Engine.iterations

let test_overload_degrades_gracefully () =
  (* hp alone needs 9 of every 8 time units, so lp's busy window grows
     past the window cap: unbounded outcomes, no convergence claim *)
  let spec =
    Spec.make
      ~sources:[ "src", Stream.periodic ~name:"src" ~period:8 ]
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"hp" ~resource:"cpu" ~cet:(Interval.point 9)
            ~priority:1 ~activation:(Spec.From_source "src") ();
          Spec.task ~name:"lp" ~resource:"cpu" ~cet:(Interval.point 1)
            ~priority:2 ~activation:(Spec.From_source "src") ();
        ]
      ()
  in
  let result = ok (Engine.analyse spec) in
  Alcotest.(check bool) "not converged" false result.Engine.converged;
  Alcotest.(check (list string)) "lp diverges"
    [ "unbounded (busy window diverges (overload))" ]
    (List.filter_map
       (fun (o : Engine.element_outcome) ->
         if String.equal o.element "lp" then
           Some
             (Format.asprintf "%a" Scheduling.Busy_window.pp_outcome o.outcome)
         else None)
       result.Engine.outcomes)

let prop_wcrt_monotone_in_cet =
  QCheck.Test.make ~name:"WCRT monotone in execution time" ~count:25
    (QCheck.pair (QCheck.int_range 5 40) (QCheck.int_range 1 20))
    (fun (cet, extra) ->
      let cet = Stdlib.max 5 cet and extra = Stdlib.max 1 extra in
      let build c =
        Spec.make
          ~sources:[ "s", Stream.periodic ~name:"s" ~period:200 ]
          ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
          ~tasks:
            [
              Spec.task ~name:"hp" ~resource:"cpu" ~cet:(Interval.point c)
                ~priority:1 ~activation:(Spec.From_source "s") ();
              Spec.task ~name:"lp" ~resource:"cpu" ~cet:(Interval.point 30)
                ~priority:2 ~activation:(Spec.From_source "s") ();
            ]
          ()
      in
      let wcrt c =
        match Engine.analyse (build c) with
        | Ok result -> begin
          match Engine.response result "lp" with
          | Some r -> Interval.hi r
          | None -> max_int
        end
        | Error _ -> max_int
      in
      wcrt cet <= wcrt (cet + extra))

let prop_hem_never_worse_than_flat =
  QCheck.Test.make ~name:"hierarchical never worse than flat" ~count:15
    (QCheck.pair (QCheck.int_range 150 400) (QCheck.int_range 200 600))
    (fun (p1, p2) ->
      let p1 = Stdlib.max 150 p1 and p2 = Stdlib.max 200 p2 in
      let spec = Scenarios.Gateway.spec ~s1_period:p1 ~s2_period:p2 () in
      match
        ( Engine.analyse ~mode:Engine.Flat_sem spec,
          Engine.analyse ~mode:Engine.Hierarchical spec )
      with
      | Ok flat, Ok hem ->
        (not (flat.Engine.converged && hem.Engine.converged))
        || List.for_all
             (fun name ->
               match Engine.response flat name, Engine.response hem name with
               | Some f, Some h -> Interval.hi h <= Interval.hi f
               | _ -> false)
             Scenarios.Gateway.receivers
      | Error _, _ | _, Error _ -> false)

let () =
  Alcotest.run "system"
    [
      ( "engine",
        [
          Alcotest.test_case "task chain" `Quick test_chain_analysis;
          Alcotest.test_case "path latency" `Quick test_path_latency;
          Alcotest.test_case "OR activation" `Quick test_or_activation;
          Alcotest.test_case "validation errors" `Quick test_validation_errors;
          Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
          Alcotest.test_case "overload reported" `Quick test_overload_reported;
          Alcotest.test_case "tdma resource" `Quick test_tdma_resource;
          Alcotest.test_case "tdma requires service" `Quick
            test_tdma_requires_service;
          Alcotest.test_case "round robin resource" `Quick
            test_round_robin_resource;
        ] );
      ( "paper system",
        [
          Alcotest.test_case "regression values" `Quick test_paper_regression_flat;
          Alcotest.test_case "hem dominates flat" `Quick
            test_paper_hem_dominates_flat;
          Alcotest.test_case "reduction shape (Table 3)" `Quick
            test_paper_reduction_grows_with_lower_priority;
          Alcotest.test_case "mode ordering" `Quick test_paper_flat_stream_mode;
          Alcotest.test_case "figure 4 series" `Quick test_paper_figure4_series;
          Alcotest.test_case "S3 sweep monotone" `Quick test_paper_s3_sweep;
          Alcotest.test_case "iterations" `Quick test_paper_iterations_reported;
          Alcotest.test_case "hierarchy accessors" `Quick test_hierarchy_accessors;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "AND activation" `Quick test_and_activation;
          Alcotest.test_case "two-hop gateway" `Quick
            test_gateway_two_hop_regression;
          Alcotest.test_case "signal data age" `Quick test_signal_data_age;
          Alcotest.test_case "resource utilizations" `Quick test_utilizations;
          Alcotest.test_case "From_frame receiver" `Quick
            test_from_frame_receiver;
          Alcotest.test_case "periodic frame system" `Quick
            test_periodic_frame_system;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "iteration cutoff" `Quick test_max_iterations_cutoff;
          Alcotest.test_case "overload degrades gracefully" `Quick
            test_overload_degrades_gracefully;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_wcrt_monotone_in_cet; prop_hem_never_worse_than_flat ] );
    ]
