(* Sensitivity searches: Explore.Sensitivity's multisection must return
   the answer of its one-probe-per-round bisection (jobs = 1) at every
   job count (monotone predicate => unique threshold), and the answers
   must be genuine thresholds: feasible at the result, infeasible one
   step beyond. *)

module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Sens = Explore.Sensitivity
module Paper = Scenarios.Paper_system

let scale_cet = Explore.Space.scale_cet
let paper () = Paper.spec ()

let limit = 4_000

let test_schedulable () =
  Alcotest.(check bool) "paper system schedulable" true
    (Sens.schedulable (Paper.spec ()));
  Alcotest.(check bool) "overloaded when T3 blown up" false
    (Sens.schedulable
       (scale_cet (Paper.spec ()) ~task:"T3" ~percent:limit))

let test_max_cet_scale_is_threshold () =
  match
    Sens.max_cet_scale ~jobs:1 ~limit_percent:limit ~build:paper ~task:"T3" ()
  with
  | None -> Alcotest.fail "expected a feasible scale"
  | Some best ->
    Alcotest.(check bool) "at least current size" true (best >= 100);
    Alcotest.(check bool) "strictly below the limit" true (best < limit);
    Alcotest.(check bool) "feasible at the result" true
      (Sens.schedulable
         (scale_cet (Paper.spec ()) ~task:"T3" ~percent:best));
    Alcotest.(check bool) "infeasible one step beyond" false
      (Sens.schedulable
         (scale_cet (Paper.spec ()) ~task:"T3" ~percent:(best + 1)))

let test_parallel_cet_agrees_with_serial () =
  let serial =
    Sens.max_cet_scale ~jobs:1 ~limit_percent:limit ~build:paper ~task:"T3" ()
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d" jobs)
        serial
        (Sens.max_cet_scale ~jobs ~limit_percent:limit ~build:paper
           ~task:"T3" ()))
    [ 2; 3 ]

let test_parallel_cet_unschedulable_base () =
  (* a system already infeasible at 100 % must report None *)
  let build () = scale_cet (Paper.spec ()) ~task:"T3" ~percent:limit in
  Alcotest.(check (option int)) "None when infeasible at 100%" None
    (Sens.max_cet_scale ~jobs:2 ~limit_percent:200 ~build ~task:"T3" ())

let test_min_source_period_agrees () =
  let rebuild period = Paper.spec ~s3_period:period () in
  let serial = Sens.min_source_period ~jobs:1 ~rebuild ~lo:10 ~hi:2000 () in
  (match serial with
  | None -> Alcotest.fail "expected a feasible period"
  | Some p ->
    Alcotest.(check bool) "feasible at the result" true
      (Sens.schedulable (rebuild p));
    if p > 10 then
      Alcotest.(check bool) "infeasible one step below" false
        (Sens.schedulable (rebuild (p - 1))));
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d" jobs)
        serial
        (Sens.min_source_period ~jobs ~rebuild ~lo:10 ~hi:2000 ()))
    [ 2; 3 ]

let test_min_source_period_all_infeasible () =
  (* with T3 blown up no period in the range helps *)
  let rebuild period =
    scale_cet (Paper.spec ~s3_period:period ()) ~task:"T3"
      ~percent:limit
  in
  Alcotest.(check (option int)) "serial" None
    (Sens.min_source_period ~jobs:1 ~rebuild ~lo:100 ~hi:400 ());
  Alcotest.(check (option int)) "parallel" None
    (Sens.min_source_period ~jobs:2 ~rebuild ~lo:100 ~hi:400 ())

let test_flat_mode_agrees () =
  (* mode threading: the flat analysis has a different (smaller)
     threshold, and jobs 1 and 3 still agree on it *)
  let serial =
    Sens.max_cet_scale ~jobs:1 ~mode:Engine.Flat_sem ~limit_percent:limit
      ~build:paper ~task:"T1" ()
  in
  Alcotest.(check (option int)) "flat mode, jobs=3" serial
    (Sens.max_cet_scale ~jobs:3 ~mode:Engine.Flat_sem ~limit_percent:limit
       ~build:paper ~task:"T1" ())

let () =
  Alcotest.run "sensitivity"
    [
      ( "serial",
        [
          Alcotest.test_case "schedulable" `Quick test_schedulable;
          Alcotest.test_case "cet threshold" `Quick
            test_max_cet_scale_is_threshold;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "cet agrees with serial" `Quick
            test_parallel_cet_agrees_with_serial;
          Alcotest.test_case "infeasible base" `Quick
            test_parallel_cet_unschedulable_base;
          Alcotest.test_case "period agrees with serial" `Quick
            test_min_source_period_agrees;
          Alcotest.test_case "period all infeasible" `Quick
            test_min_source_period_all_infeasible;
          Alcotest.test_case "flat mode" `Quick test_flat_mode_agrees;
        ] );
    ]
