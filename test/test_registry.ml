(* Tier-1 gates over the named systems of [Scenarios.Registry]:

   - work budgets: the analysis work of each system, as counted by the
     engine's curve, busy-window and iteration counters (and the RTC
     kernel counters on the rtc/mixed rows), must not exceed the
     recorded budget.  Counts are deterministic, so these budgets
     catch an algorithmic regression on any host, where a wall-clock
     ratio cannot;
   - tightness: the propagation and backend claims of the experiment
     tables (optimal propagation dominates every mode and strictly wins
     somewhere; pure RTC agrees with pure CPA on the paper system; every
     backend dominates simulation; per-system boundedness floors). *)

module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec
module Interval = Timebase.Interval
module Registry = Scenarios.Registry
module Oracle = Verify.Oracle
module Prop = Event_model.Propagation

let analyse ?(incremental = true) ~mode spec =
  match Engine.analyse ~mode ~incremental spec with
  | Ok r -> r
  | Error e -> Alcotest.fail (Guard.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* work budgets *)

let counter_names =
  [
    "curve.closure_evals"; "curve.memo_hits"; "curve.periodic_evals";
    "curve.searches"; "curve.search_steps"; "curve.batch_sweeps";
    "curve.batch_probes"; "busy_window.windows";
    "busy_window.window_iterations"; "busy_window.demand_probes";
    "engine.iterations"; "engine.resources_analysed";
  ]

let counters (r : Engine.result) =
  let c = r.stats.curve and b = r.stats.busy in
  [
    c.closure_evals; c.memo_hits; c.periodic_evals; c.searches;
    c.search_steps; c.batch_evals; c.batch_probe_count; b.busy_windows;
    b.window_iterations; b.demand_probes; r.iterations;
    r.stats.resources_analysed;
  ]

(* Recorded when the derived streams moved onto packed table curves.
   Each row is one system, analysis mode and engine path (the default
   incremental engine, or [~incremental:false] as the propagation and
   backend tables run it), with one budget per [counter_names] entry.
   Lower a budget when a change cuts the work; never raise one to pass. *)
let budgets =
  let flat = Engine.Flat_sem and hem = Engine.Hierarchical in
  [
    "paper", flat, true,
    [ 766; 272; 39; 58; 77; 11; 1530; 8; 42; 56; 3; 3 ];
    "paper", flat, false,
    [ 1533; 39; 63; 90; 123; 27; 3060; 15; 69; 87; 3; 6 ];
    "paper", hem, true, [ 11; 40; 3; 16; 31; 13; 15; 8; 14; 14; 2; 3 ];
    "paper", hem, false, [ 16; 46; 6; 18; 36; 20; 24; 10; 18; 16; 2; 4 ];
    "avionics", flat, true,
    [ 866; 413; 12; 598; 956; 94; 2231; 12; 63; 539; 4; 8 ];
    "avionics", flat, false,
    [ 2241; 312; 24; 1276; 1949; 196; 5486; 24; 105; 1183; 4; 16 ];
    "avionics", hem, true,
    [ 105; 220; 2; 98; 176; 106; 134; 12; 43; 59; 4; 8 ];
    "avionics", hem, false,
    [ 245; 399; 8; 200; 333; 260; 324; 24; 75; 141; 4; 16 ];
    "chain_16", hem, true,
    [ 675; 98; 3762; 64693; 76201; 147; 1497; 104; 9507; 64659; 8; 13 ];
    "chain_16", hem, false,
    [ 1318; 240; 4716; 80987; 95632; 360; 2996; 128; 11891; 80882; 8; 16 ];
    "gateway", hem, true, [ 36; 51; 0; 12; 28; 39; 45; 11; 18; 8; 2; 7 ];
    "gateway", hem, false, [ 40; 52; 0; 12; 28; 44; 52; 12; 20; 8; 2; 8 ];
    "fan_in_8", hem, true,
    [ 32; 207; 0; 114; 184; 40; 89; 17; 38; 112; 2; 3 ];
    "fan_in_8", hem, false,
    [ 48; 214; 0; 114; 184; 64; 162; 18; 46; 112; 2; 4 ];
    "network_8", hem, true,
    [ 164; 226; 64; 182; 302; 164; 404; 60; 116; 108; 2; 20 ];
    "network_8", hem, false,
    [ 164; 226; 64; 182; 302; 164; 404; 60; 116; 108; 2; 20 ];
  ]

(* The RTC kernel counters, budgeted for the rows that run the curve
   backend. *)
let rtc_counter_names =
  counter_names
  @ [
      "rtc.deconv_rows"; "rtc.deconv_candidates"; "rtc.delay_scan_steps";
      "rtc.eta_walk_steps";
    ]

let rtc_counters (r : Engine.result) =
  let t = r.stats.rtc in
  counters r
  @ [
      t.deconv_rows; t.deconv_candidates; t.delay_scan_steps;
      t.eta_walk_steps;
    ]

(* Hierarchical analyses of three systems with every resource forced
   onto the RTC backend, and with the mixed assignment of the backend
   tables; one budget per [rtc_counter_names] entry, recorded when the
   deconvolution's tail certificate became closed-form (one row per
   sample) and its rows stopped at a linear-envelope bound, and lowered
   when RTC outputs were compared by their curves instead of probing
   each converted stream (fewer closure evaluations, memo hits and batch
   sweeps), and again when RTC items reused their curves and GPC
   outcomes across iterations.  Lower a budget when a change cuts the
   work; never raise one to pass. *)
let rtc_budgets =
  [
    "paper", "rtc",
    [ 268; 116; 4; 18; 41; 21; 335; 0; 0; 0; 3; 3; 2058; 4757; 4222; 22 ];
    "paper", "mixed",
    [ 42; 45; 4; 18; 35; 14; 79; 6; 10; 12; 2; 3; 516; 553; 1048; 7 ];
    "avionics", "rtc",
    [ 681; 386; 2; 94; 207; 80; 747; 0; 5; 57; 3; 8; 6672; 44810; 16025;
      185 ];
    "avionics", "mixed",
    [ 621; 321; 2; 108; 207; 80; 747; 6; 39; 57; 3; 8; 1544; 1862; 5007;
      32 ];
    "network_8", "rtc",
    [ 1815; 1329; 64; 147; 344; 189; 1786; 0; 0; 0; 4; 30; 14594; 56127;
      37782; 207 ];
    "network_8", "mixed",
    [ 734; 380; 70; 196; 348; 169; 913; 41; 85; 86; 3; 26; 4688; 17491;
      12484; 68 ];
  ]

let check_budget ~label ~names ~budget run =
  let first = run () in
  Alcotest.(check (list int)) "two runs on fresh specs count alike" first
    (run ());
  let over =
    List.filter_map
      (fun (name, (count, cap)) ->
        if count <= cap then None
        else Some (Printf.sprintf "%s %d > %d" name count cap))
      (List.combine names (List.combine first budget))
  in
  if over <> [] then
    Alcotest.failf "%s exceeds its work budget: %s" label
      (String.concat ", " over)

let budget_case (system, mode, incremental, budget) =
  let label =
    Printf.sprintf "%s %s%s" system (Engine.mode_name mode)
      (if incremental then "" else " full")
  in
  Alcotest.test_case label `Quick (fun () ->
      check_budget ~label ~names:counter_names ~budget (fun () ->
          counters (analyse ~incremental ~mode (Registry.find system ()))))

let force_backend = function
  | "rtc" -> Oracle.forced_backend Spec.Rtc
  | "mixed" -> Oracle.mixed_backend
  | b -> invalid_arg ("force_backend: " ^ b)

let rtc_budget_case (system, backend, budget) =
  let label = Printf.sprintf "%s hierarchical %s" system backend in
  Alcotest.test_case label `Quick (fun () ->
      check_budget ~label ~names:rtc_counter_names ~budget (fun () ->
          rtc_counters
            (analyse ~mode:Engine.Hierarchical
               (force_backend backend (Registry.find system ())))))

(* Later iterations of network_8 re-analyse resources in which only some
   items' inputs moved; the others are served from the item cache. *)
let items_reused_case backend =
  let label = Printf.sprintf "network_8 hierarchical %s reuses items" backend in
  Alcotest.test_case label `Quick (fun () ->
      let run () =
        (analyse ~mode:Engine.Hierarchical
           (force_backend backend (Registry.find "network_8" ())))
          .stats.rtc.items_reused
      in
      let first = run () in
      Alcotest.(check int) "two runs reuse alike" first (run ());
      if first <= 0 then Alcotest.failf "%s: no item reused" label)

(* ------------------------------------------------------------------ *)
(* tightness *)

(* The systems of the propagation and backend tables. *)
let tightness_systems =
  [ "paper"; "gateway"; "avionics"; "fan_in_8"; "chain_12"; "network_8" ]

let hi_map (r : Engine.result) =
  List.map
    (fun (o : Engine.element_outcome) ->
      ( o.element,
        match o.outcome with
        | Scheduling.Busy_window.Bounded i -> Some (Interval.hi i)
        | Scheduling.Busy_window.Unbounded _ -> None ))
    r.outcomes

let degraded (r : Engine.result) =
  match r.status with Engine.Degraded _ -> true | _ -> false

let check_all_ok ~what checks =
  List.iter
    (fun (c : Oracle.check) ->
      if not c.ok then Alcotest.failf "%s: %s failed: %s" what c.name c.detail)
    checks

let full_hem spec =
  analyse ~incremental:false ~mode:Engine.Hierarchical spec

let test_optimal_dominates_modes () =
  List.iter
    (fun system ->
      let spec = Registry.find system () in
      check_all_ok ~what:system (Oracle.propagation_dominance spec);
      (* the oracle leaves degraded runs out of its comparison; none may
         occur here, so that exclusion stays vacuous *)
      List.iter
        (fun m ->
          if degraded (full_hem (Oracle.forced_mode m spec)) then
            Alcotest.failf "%s: %s run degraded" system (Prop.mode_name m))
        Prop.all_modes)
    tightness_systems

let test_optimal_strict_win () =
  let strict system =
    let spec = Registry.find system () in
    let theta = hi_map (full_hem (Oracle.forced_mode Prop.Theta_tau spec)) in
    List.exists
      (fun (element, o) ->
        match o, List.assoc_opt element theta with
        | Some o, Some (Some t) -> o < t
        | _ -> false)
      (hi_map (full_hem (Oracle.forced_mode Prop.Optimal spec)))
  in
  Alcotest.(check bool) "optimal strictly tighter than theta_tau somewhere"
    true
    (List.exists strict tightness_systems)

let backends =
  [
    "cpa", Oracle.forced_backend Spec.Cpa;
    "rtc", Oracle.forced_backend Spec.Rtc;
    "mixed", Oracle.mixed_backend;
  ]

(* one analysis per table system and backend, shared by the tests below *)
let backend_runs =
  lazy
    (List.concat_map
       (fun system ->
         List.map
           (fun (backend, force) ->
             (system, backend), full_hem (force (Registry.find system ())))
           backends)
       tightness_systems)

let run system backend = List.assoc (system, backend) (Lazy.force backend_runs)

let bounded r = List.length (List.filter (fun (_, h) -> h <> None) (hi_map r))

let test_pure_agreement () =
  Alcotest.(check (list (pair string (option int))))
    "pure rtc = pure cpa on the paper system"
    (hi_map (run "paper" "cpa"))
    (hi_map (run "paper" "rtc"))

let test_paper_bounded () =
  List.iter
    (fun (backend, _) ->
      let r = run "paper" backend in
      Alcotest.(check string) (backend ^ " converged") "converged"
        (Engine.status_name r.status);
      Alcotest.(check int) (backend ^ " bounds every element")
        (List.length r.outcomes) (bounded r))
    backends

let test_des_dominance () =
  match
    Des.Simulator.run ~generators:(Scenarios.Paper_system.generators ())
      ~horizon:1_000_000
      (Registry.find "paper" ())
  with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    List.iter
      (fun (backend, _) ->
        List.iter
          (fun (element, h) ->
            match h, Des.Trace.worst_response trace element with
            | Some bound, Some observed when observed > bound ->
              Alcotest.failf "%s: %s bound %d below observed %d" backend
                element bound observed
            | _ -> ())
          (hi_map (run "paper" backend)))
      backends

let test_boundedness_regressions () =
  let lost system backend =
    let curve = hi_map (run system backend) in
    List.length
      (List.filter
         (fun (element, h) ->
           h <> None && List.assoc_opt element curve = Some None)
         (hi_map (run system "cpa")))
  in
  let regressions =
    List.fold_left
      (fun acc system -> acc + lost system "rtc" + lost system "mixed")
      0 tightness_systems
  in
  if regressions > 2 then
    Alcotest.failf
      "%d elements bounded under cpa go unbounded under rtc/mixed (at most 2)"
      regressions

let bounded_floors =
  [
    "paper", 5; "gateway", 6; "avionics", 10; "fan_in_8", 9; "chain_12", 11;
    "network_8", 30;
  ]

let test_bounded_floors () =
  List.iter
    (fun (system, floor) ->
      List.iter
        (fun backend ->
          let n = bounded (run system backend) in
          if n < floor then
            Alcotest.failf "%s bounds %d elements under %s, floor %d" system n
              backend floor)
        [ "rtc"; "mixed" ])
    bounded_floors

(* ------------------------------------------------------------------ *)
(* counters under domains *)

(* Two domains analysing every system at once must each count their
   curve work exactly as a serial run does: pending memo hits are
   flushed by the domain that recorded them, never lost to (or zeroed
   by) a flush on another domain.  Three systems also run on the mixed
   backend, so the RTC kernel counters are covered too. *)
let test_curve_counters_two_domains () =
  let runs =
    List.concat_map
      (fun (e : Registry.entry) ->
        [ e.spec, Engine.Flat_sem; e.spec, Engine.Hierarchical ])
      Registry.all
    @ List.map
        (fun system ->
          ( (fun () -> Oracle.mixed_backend (Registry.find system ())),
            Engine.Hierarchical ))
        [ "paper"; "avionics"; "network_8" ]
  in
  let work (spec, mode) =
    let r = analyse ~mode (spec ()) in
    r.stats.curve, r.stats.rtc
  in
  let serial = List.map work runs in
  let differing () =
    let n = ref 0 in
    for _ = 1 to 30 do
      List.iter2
        (fun run expected -> if work run <> expected then incr n)
        runs serial
    done;
    !n
  in
  let other = Domain.spawn differing in
  let here = differing () in
  Alcotest.(check int)
    "analyses whose curve or rtc counters differ from a serial run"
    0
    (here + Domain.join other)

let () =
  Alcotest.run "registry"
    [
      ( "work budgets",
        List.map budget_case budgets
        @ List.map rtc_budget_case rtc_budgets
        @ List.map items_reused_case [ "rtc"; "mixed" ] );
      ( "tightness",
        [
          Alcotest.test_case "optimal dominates every propagation mode"
            `Quick test_optimal_dominates_modes;
          Alcotest.test_case "optimal strictly beats theta_tau" `Quick
            test_optimal_strict_win;
          Alcotest.test_case "pure rtc = pure cpa on the paper system" `Quick
            test_pure_agreement;
          Alcotest.test_case "paper bounded and converged on every backend"
            `Quick test_paper_bounded;
          Alcotest.test_case "every backend dominates simulation" `Quick
            test_des_dominance;
          Alcotest.test_case "boundedness regressions at most 2" `Quick
            test_boundedness_regressions;
          Alcotest.test_case "rtc and mixed bounded floors" `Quick
            test_bounded_floors;
        ] );
      ( "domains",
        [
          Alcotest.test_case "curve counters match a serial run" `Quick
            test_curve_counters_two_domains;
        ] );
    ]
