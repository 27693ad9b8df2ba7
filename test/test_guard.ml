(* Resilience layer: guard tokens, deterministic fault injection, pool
   interruption, and graceful engine degradation.

   Every test that arms a fault resets the injection registry first and
   on exit, so cases stay independent. *)

module Interval = Timebase.Interval
module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec
module Report = Cpa_system.Report
module Sens = Explore.Sensitivity
module Pool = Explore.Pool
module Driver = Explore.Driver
module Render = Explore.Render
module Space = Explore.Space
module Paper = Scenarios.Paper_system

let with_inject f =
  Guard.Inject.reset ();
  Fun.protect ~finally:Guard.Inject.reset f

let reason =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Guard.Error.to_string e))
    (fun a b -> a = b)

let verdict =
  Alcotest.testable Sens.pp_verdict (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* guard tokens *)

let test_guard_tokens () =
  (* the inert token never trips *)
  Alcotest.(check bool) "none inactive" false (Guard.active Guard.none);
  Guard.spend Guard.none 1_000_000;
  Alcotest.(check (option reason)) "none clean" None (Guard.poll Guard.none);
  (* budget: trips exactly when the spend crosses the limit *)
  let g = Guard.create ~budget:3 () in
  Guard.spend g 2;
  Alcotest.(check (option reason)) "within budget" None (Guard.poll g);
  Alcotest.(check bool) "budget trips" true
    (match Guard.spend g 2 with
     | _ -> false
     | exception Guard.Error.Error (Guard.Error.Budget_exhausted _) -> true);
  (* sticky: a later cancellation does not change the reported reason *)
  Guard.cancel g;
  Alcotest.(check (option reason)) "sticky first trip"
    (Some (Guard.Error.Budget_exhausted { budget = 3 }))
    (Guard.poll g);
  (* cancellation *)
  let g = Guard.create () in
  Alcotest.(check (option reason)) "clean" None (Guard.poll g);
  Guard.cancel g;
  Alcotest.(check (option reason)) "cancelled" (Some Guard.Error.Cancelled)
    (Guard.poll g);
  (* deadline *)
  let g = Guard.create ~deadline_ms:0.0 () in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "deadline trips" true
    (match Guard.poll g with
     | Some (Guard.Error.Deadline_exceeded _) -> true
     | _ -> false);
  (* exit-code table *)
  Alcotest.(check int) "cancelled code" 4
    (Guard.Error.exit_code Guard.Error.Cancelled);
  Alcotest.(check int) "deadline code" 3
    (Guard.Error.exit_code (Guard.Error.Deadline_exceeded { deadline_ms = 1.0 }));
  Alcotest.(check int) "budget code" 3
    (Guard.Error.exit_code (Guard.Error.Budget_exhausted { budget = 1 }));
  Alcotest.(check int) "diverged code" 3
    (Guard.Error.exit_code (Guard.Error.Diverged { iterations = 1 }));
  Alcotest.(check int) "cycle code" 1
    (Guard.Error.exit_code (Guard.Error.Cycle { element = "t" }))

let test_ambient_token () =
  let g = Guard.create ~budget:5 () in
  Alcotest.(check bool) "default ambient inert" false
    (Guard.active (Guard.ambient ()));
  Guard.with_ambient g (fun () ->
      Alcotest.(check bool) "installed" true (Guard.active (Guard.ambient ()));
      Guard.tick ~cost:2 ());
  Alcotest.(check bool) "restored" false (Guard.active (Guard.ambient ()));
  (* the tick above spent from [g] *)
  Alcotest.(check bool) "tick spent" true
    (match Guard.spend g 4 with
     | _ -> false
     | exception Guard.Error.Error (Guard.Error.Budget_exhausted _) -> true)

(* ------------------------------------------------------------------ *)
(* injection registry *)

let test_inject_registry () =
  with_inject @@ fun () ->
  Alcotest.(check bool) "initially unarmed" false (Guard.Inject.armed ());
  let hits = ref 0 in
  Guard.Inject.arm ~after:2 ~times:2 ~site:"x" (Guard.Inject.Act (fun () -> incr hits));
  Alcotest.(check bool) "armed" true (Guard.Inject.armed ());
  Guard.Inject.fire "y";
  Guard.Inject.fire "x";
  Alcotest.(check int) "first visit skipped" 0 !hits;
  Guard.Inject.fire "x";
  Guard.Inject.fire "x";
  Alcotest.(check int) "fired twice" 2 !hits;
  Alcotest.(check bool) "exhausted" false (Guard.Inject.armed ());
  Guard.Inject.fire "x";
  Alcotest.(check int) "inert afterwards" 2 !hits;
  Guard.Inject.arm ~site:"z" (Guard.Inject.Crash "boom");
  Guard.Inject.reset ();
  Alcotest.(check bool) "reset disarms" false (Guard.Inject.armed ());
  Guard.Inject.fire "z"

(* ------------------------------------------------------------------ *)
(* pool: spawn failure, worker crashes, interruption *)

let test_pool_spawn_failure_joins () =
  (* regression: a [Domain.spawn] failure mid-way must join the helpers
     already running instead of leaking them, then re-raise *)
  with_inject @@ fun () ->
  Guard.Inject.arm ~site:"t.spawn:2" (Guard.Inject.Crash "spawn dies");
  (* oversubscribe so helper 2 is spawned even on a 1-core machine *)
  Alcotest.(check bool) "spawn failure re-raised" true
    (match
       Pool.map_guarded ~jobs:4 ~oversubscribe:true ~label:"t" (fun i -> i) 64
     with
     | _ -> false
     | exception Failure m -> String.equal m "spawn dies");
  (* the pool is fully functional afterwards: nothing leaked, the queue
     was drained *)
  Alcotest.(check (list int)) "pool alive" [ 0; 1; 2; 3; 4 ]
    (Pool.map ~jobs:3 ~label:"t" (fun i -> i) 5)

let test_pool_worker_crash () =
  (* a crash on the claim path is a worker death: the survivors drain
     the queue and the crash surfaces after every domain is joined *)
  with_inject @@ fun () ->
  Guard.Inject.arm ~site:"t.item:3" (Guard.Inject.Crash "worker dies");
  Alcotest.(check bool) "crash surfaces" true
    (match Pool.map_guarded ~jobs:3 ~label:"t" (fun i -> i) 16 with
     | _ -> false
     | exception Failure m -> String.equal m "worker dies")

let test_pool_error_precedence () =
  (* the smallest-index item error beats a later worker crash, even when
     the crash kills its worker mid-queue *)
  with_inject @@ fun () ->
  Guard.Inject.arm ~site:"t.item:5" (Guard.Inject.Crash "worker dies");
  Alcotest.(check bool) "smallest index error wins" true
    (match
       Pool.map_guarded ~jobs:3 ~label:"t"
         (fun i -> if i = 2 then failwith "item 2 failed" else i)
         16
     with
     | _ -> false
     | exception Failure m -> String.equal m "item 2 failed")

let interrupted_prefix jobs =
  with_inject @@ fun () ->
  Guard.Inject.arm ~site:"t.item:7" (Guard.Inject.Trip Guard.Error.Cancelled);
  match Pool.map_guarded ~jobs ~label:"t" (fun i -> i * i) 24 with
  | Pool.Complete _, _ -> Alcotest.fail "expected interruption"
  | Pool.Interrupted { completed; reason = why; attempted }, _ ->
    Alcotest.check reason "cancelled" Guard.Error.Cancelled why;
    Alcotest.(check bool) "attempted covers prefix" true (attempted >= 7);
    completed

let test_pool_interrupted_prefix () =
  (* a cancelled map returns the deterministic completed prefix — all
     rows before the interruption point, none after — at any job count *)
  let serial = interrupted_prefix 1 in
  Alcotest.(check (list int)) "prefix is items 0..6"
    [ 0; 1; 4; 9; 16; 25; 36 ] serial;
  let parallel = interrupted_prefix 4 in
  Alcotest.(check (list int)) "jobs=4 identical to jobs=1" serial parallel

(* ------------------------------------------------------------------ *)
(* engine degradation *)

let all_outcomes_of result = result.Engine.outcomes

let widened_count result =
  match Engine.degradation result with
  | None -> 0
  | Some d -> List.length d.Engine.widened

let test_engine_cancellation () =
  (* a trip between iterations degrades the result instead of raising:
     structured reason, widened bounds, converged = false *)
  with_inject @@ fun () ->
  Guard.Inject.arm ~site:"engine.iteration:2"
    (Guard.Inject.Trip Guard.Error.Cancelled);
  match Engine.analyse ~mode:Engine.Hierarchical (Paper.spec ()) with
  | Error e -> Alcotest.failf "analyse: %s" (Guard.Error.to_string e)
  | Ok result ->
    Alcotest.(check bool) "not converged" false result.Engine.converged;
    (match Engine.degradation result with
     | None -> Alcotest.fail "expected degradation"
     | Some d ->
       Alcotest.check reason "cancelled" Guard.Error.Cancelled d.Engine.reason;
       Alcotest.(check int) "cut at iteration 2" 2 d.Engine.at_iteration;
       Alcotest.(check bool) "something widened" true (d.Engine.widened <> []));
    (* widened elements claim nothing; their outcome says why *)
    List.iter
      (fun (o : Engine.element_outcome) ->
        match o.outcome with
        | Scheduling.Busy_window.Bounded _ -> ()
        | Scheduling.Busy_window.Unbounded msg ->
          Alcotest.(check bool)
            (o.element ^ " tagged as degraded")
            true
            (String.length msg >= 8 && String.sub msg 0 8 = "degraded"))
      (all_outcomes_of result)

let test_engine_budget_degrades_soundly () =
  (* budget exhaustion inside the busy-window ticks: the degraded result
     keeps only bounds that equal the fully converged analysis (oracle
     check) and still dominates the simulator *)
  let spec = Paper.spec () in
  let full =
    match Engine.analyse ~mode:Engine.Hierarchical spec with
    | Ok r -> r
    | Error e -> Alcotest.failf "full analyse: %s" (Guard.Error.to_string e)
  in
  let activations = full.Engine.stats.Engine.busy.Scheduling.Busy_window.activations in
  let budget = Stdlib.max 1 (activations / 2) in
  let guard = Guard.create ~budget () in
  match Engine.analyse ~mode:Engine.Hierarchical ~guard spec with
  | Error e -> Alcotest.failf "guarded analyse: %s" (Guard.Error.to_string e)
  | Ok degraded ->
    (match Engine.degradation degraded with
     | Some d ->
       Alcotest.check reason "budget reason"
         (Guard.Error.Budget_exhausted { budget })
         d.Engine.reason
     | None -> Alcotest.fail "expected budget degradation");
    let sound = Verify.Oracle.degradation_soundness ~reference:full degraded in
    Alcotest.(check bool) ("retained bounds final: " ^ sound.Verify.Oracle.detail)
      true sound.Verify.Oracle.ok;
    List.iter
      (fun (c : Verify.Oracle.check) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" c.Verify.Oracle.name c.Verify.Oracle.detail)
          true c.Verify.Oracle.ok)
      (Verify.Oracle.simulation_dominance ~horizon:100_000
         ~generators:(Paper.generators ())
         ~tag:"degraded" degraded spec)

let test_engine_deadline_all_widened () =
  (* a deadline that expires before the first iteration completes widens
     every bound: the engine claims nothing it cannot guarantee *)
  let guard = Guard.create ~deadline_ms:0.0 () in
  Unix.sleepf 0.002;
  match Engine.analyse ~mode:Engine.Hierarchical ~guard (Paper.spec ()) with
  | Error e -> Alcotest.failf "analyse: %s" (Guard.Error.to_string e)
  | Ok result ->
    (match Engine.degradation result with
     | Some d ->
       Alcotest.(check bool) "deadline reason" true
         (match d.Engine.reason with
          | Guard.Error.Deadline_exceeded _ -> true
          | _ -> false)
     | None -> Alcotest.fail "expected deadline degradation");
    Alcotest.(check bool) "all bounds widened" true
      (List.for_all
         (fun (o : Engine.element_outcome) ->
           match o.outcome with
           | Scheduling.Busy_window.Unbounded _ -> true
           | Scheduling.Busy_window.Bounded _ -> false)
         (all_outcomes_of result));
    Alcotest.(check int) "every element in the widened list"
      (List.length (all_outcomes_of result))
      (widened_count result)

let test_engine_divergence_is_degraded () =
  (* hitting max_iterations is a structured degradation, not a silent
     [converged = false] *)
  match Engine.analyse ~mode:Engine.Hierarchical ~max_iterations:1 (Paper.spec ()) with
  | Error e -> Alcotest.failf "analyse: %s" (Guard.Error.to_string e)
  | Ok result ->
    Alcotest.(check bool) "not converged" false result.Engine.converged;
    (match Engine.degradation result with
     | Some d ->
       Alcotest.check reason "diverged"
         (Guard.Error.Diverged { iterations = 1 })
         d.Engine.reason
     | None -> Alcotest.fail "expected divergence degradation");
    (* ...and the report shouts about it *)
    let rendered = Format.asprintf "%a" Report.print_outcomes result in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i =
        i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
      in
      scan 0
    in
    Alcotest.(check bool) "report mentions DEGRADED" true
      (contains rendered "DEGRADED")

(* ------------------------------------------------------------------ *)
(* driver: interrupted sweeps stay deterministic *)

let driver_interrupted_report jobs =
  with_inject @@ fun () ->
  Guard.Inject.arm ~site:"explore.item:7"
    (Guard.Inject.Trip (Guard.Error.Deadline_exceeded { deadline_ms = 1.0 }));
  let base () = Paper.spec () in
  let axis =
    Space.int_axis "S1.period"
      (fun period -> Space.Source_period { source = "S1"; period })
      [ 238; 240; 242; 244; 246; 248; 250; 252; 254; 256; 258; 260 ]
  in
  let items = Driver.items_of_variants ~base (Space.grid [ axis ]) in
  Driver.run ~jobs ~modes:[ Engine.Hierarchical ] items

let test_driver_interrupted_deterministic () =
  let serial = driver_interrupted_report 1 in
  Alcotest.(check int) "prefix rows" 7 (List.length serial.Driver.rows);
  Alcotest.(check (option reason)) "carries the reason"
    (Some (Guard.Error.Deadline_exceeded { deadline_ms = 1.0 }))
    serial.Driver.interrupted;
  let parallel = driver_interrupted_report 4 in
  let render r = Format.asprintf "%a" Render.csv r in
  Alcotest.(check string) "csv byte-identical jobs 1 vs 4" (render serial)
    (render parallel);
  let render_json r = Format.asprintf "%a" Render.json r in
  Alcotest.(check string) "json byte-identical jobs 1 vs 4"
    (render_json serial) (render_json parallel)

(* ------------------------------------------------------------------ *)
(* sensitivity: degenerate intervals get structured verdicts *)

let test_search_degenerate_serial () =
  (* one probe per round: the plain bisection *)
  let search_max = Sens.search_max ~jobs:1
  and search_min = Sens.search_min ~jobs:1 in
  Alcotest.check verdict "empty interval"
    (Sens.Empty_interval { lo = 5; hi = 3 })
    (search_max ~lo:5 ~hi:3 (fun _ -> true));
  Alcotest.check verdict "both infeasible" Sens.No_margin
    (search_max ~lo:0 ~hi:10 (fun _ -> false));
  Alcotest.check verdict "both feasible" (Sens.Margin 10)
    (search_max ~lo:0 ~hi:10 (fun _ -> true));
  Alcotest.check verdict "non-monotone endpoints"
    (Sens.Non_monotone { lo_feasible = false; hi_feasible = true })
    (search_max ~lo:0 ~hi:10 (fun x -> x >= 5));
  Alcotest.check verdict "regular bisection" (Sens.Margin 7)
    (search_max ~lo:0 ~hi:10 (fun x -> x <= 7));
  Alcotest.check verdict "single point feasible" (Sens.Margin 4)
    (search_max ~lo:4 ~hi:4 (fun _ -> true));
  (* the min-side search mirrors the same verdicts *)
  Alcotest.check verdict "min: both infeasible" Sens.No_margin
    (search_min ~lo:0 ~hi:10 (fun _ -> false));
  Alcotest.check verdict "min: regular" (Sens.Margin 3)
    (search_min ~lo:0 ~hi:10 (fun x -> x >= 3));
  Alcotest.check verdict "min: non-monotone"
    (Sens.Non_monotone { lo_feasible = true; hi_feasible = false })
    (search_min ~lo:0 ~hi:10 (fun x -> x <= 5))

let test_search_degenerate_parallel () =
  (* the multisection returns the same structured verdicts at every job
     count, on both sides: the min side is the max side negated *)
  List.iter
    (fun jobs ->
      let tag s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.check verdict (tag "empty interval")
        (Sens.Empty_interval { lo = 9; hi = 2 })
        (Sens.search_max ~jobs ~lo:9 ~hi:2 (fun _ -> true));
      Alcotest.check verdict (tag "both infeasible") Sens.No_margin
        (Sens.search_max ~jobs ~lo:0 ~hi:10 (fun _ -> false));
      Alcotest.check verdict (tag "non-monotone")
        (Sens.Non_monotone { lo_feasible = false; hi_feasible = true })
        (Sens.search_max ~jobs ~lo:0 ~hi:10 (fun x -> x >= 5));
      Alcotest.check verdict (tag "regular") (Sens.Margin 7)
        (Sens.search_max ~jobs ~lo:0 ~hi:10 (fun x -> x <= 7));
      Alcotest.check verdict (tag "min: empty interval")
        (Sens.Empty_interval { lo = 9; hi = 2 })
        (Sens.search_min ~jobs ~lo:9 ~hi:2 (fun _ -> true));
      Alcotest.check verdict (tag "min: both infeasible") Sens.No_margin
        (Sens.search_min ~jobs ~lo:0 ~hi:10 (fun _ -> false));
      Alcotest.check verdict (tag "min: non-monotone")
        (Sens.Non_monotone { lo_feasible = true; hi_feasible = false })
        (Sens.search_min ~jobs ~lo:0 ~hi:10 (fun x -> x <= 5));
      Alcotest.check verdict (tag "min: regular") (Sens.Margin 3)
        (Sens.search_min ~jobs ~lo:0 ~hi:10 (fun x -> x >= 3)))
    [ 1; 3 ]

let test_sensitivity_overloaded_no_margin () =
  (* a system infeasible even at 100 % CET reports a structured
     [No_margin], serial and parallel alike *)
  let build () =
    Spec.make
      ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~sources:[ "src", Event_model.Stream.periodic ~name:"src" ~period:5 ]
      ~tasks:
        [
          Spec.task ~name:"hog" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:1 ~activation:(Spec.From_source "src") ();
        ]
      ()
  in
  Alcotest.check verdict "serial" Sens.No_margin
    (Sens.max_cet_scale_verdict ~jobs:1 ~build ~task:"hog" ());
  Alcotest.check verdict "parallel" Sens.No_margin
    (Sens.max_cet_scale_verdict ~jobs:2 ~build ~task:"hog" ())

let () =
  Alcotest.run "guard"
    [
      ( "tokens",
        [
          Alcotest.test_case "basics" `Quick test_guard_tokens;
          Alcotest.test_case "ambient" `Quick test_ambient_token;
          Alcotest.test_case "inject registry" `Quick test_inject_registry;
        ] );
      ( "pool",
        [
          Alcotest.test_case "spawn failure joins" `Quick
            test_pool_spawn_failure_joins;
          Alcotest.test_case "worker crash" `Quick test_pool_worker_crash;
          Alcotest.test_case "error precedence" `Quick
            test_pool_error_precedence;
          Alcotest.test_case "interrupted prefix" `Quick
            test_pool_interrupted_prefix;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cancellation degrades" `Quick
            test_engine_cancellation;
          Alcotest.test_case "budget degrades soundly" `Quick
            test_engine_budget_degrades_soundly;
          Alcotest.test_case "deadline widens everything" `Quick
            test_engine_deadline_all_widened;
          Alcotest.test_case "divergence is degraded" `Quick
            test_engine_divergence_is_degraded;
        ] );
      ( "driver",
        [
          Alcotest.test_case "interrupted sweep deterministic" `Quick
            test_driver_interrupted_deterministic;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "degenerate serial" `Quick
            test_search_degenerate_serial;
          Alcotest.test_case "degenerate parallel" `Quick
            test_search_degenerate_parallel;
          Alcotest.test_case "overloaded no margin" `Quick
            test_sensitivity_overloaded_no_margin;
        ] );
    ]
