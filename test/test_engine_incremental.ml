(* The incremental fixed-point engine must be a pure optimisation:
   against the non-incremental engine (every iteration from scratch) the
   outcomes are bit-identical, convergence flags agree and the iteration
   trajectory — hence the count — is unchanged, across all three analysis
   modes and every bundled scenario.  Warm sessions, which keep the
   memoized streams (activations included) across edits, must render
   exactly what a cold analysis of the edited system renders. *)

module Interval = Timebase.Interval
module Busy_window = Scheduling.Busy_window
module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec
module Space = Explore.Space

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

let outcome =
  Alcotest.testable Busy_window.pp_outcome (fun a b ->
    match a, b with
    | Busy_window.Bounded x, Busy_window.Bounded y -> Interval.equal x y
    | Busy_window.Unbounded x, Busy_window.Unbounded y -> String.equal x y
    | _ -> false)

let element_outcome =
  Alcotest.testable
    (fun ppf (o : Engine.element_outcome) ->
      Format.fprintf ppf "%s@%s: %a" o.element o.resource
        Busy_window.pp_outcome o.outcome)
    (fun (a : Engine.element_outcome) b ->
      String.equal a.element b.element
      && String.equal a.resource b.resource
      && Alcotest.equal outcome a.outcome b.outcome)

let modes =
  [
    "hierarchical", Engine.Hierarchical;
    "flat_stream", Engine.Flat_stream;
    "flat_sem", Engine.Flat_sem;
  ]

let scenarios =
  List.map
    (fun (e : Scenarios.Registry.entry) -> e.name, e.spec ())
    Scenarios.Registry.all
  @ [
      "fan_in_6", Scenarios.Synthetic.fan_in ~signals:6 ();
      "chain_8", Scenarios.Synthetic.chain ~stages:8 ();
    ]

let check_equivalent mode_name mode scenario_name spec =
  let inc = ok (Engine.analyse ~mode ~incremental:true spec) in
  let full = ok (Engine.analyse ~mode ~incremental:false spec) in
  let label what =
    Printf.sprintf "%s/%s: %s" scenario_name mode_name what
  in
  Alcotest.(check (list element_outcome))
    (label "outcomes") full.Engine.outcomes inc.Engine.outcomes;
  Alcotest.(check bool)
    (label "converged") full.Engine.converged inc.Engine.converged;
  Alcotest.(check int)
    (label "iterations") full.Engine.iterations inc.Engine.iterations;
  inc

let test_modes_equivalent () =
  List.iter
    (fun (scenario_name, spec) ->
      List.iter
        (fun (mode_name, mode) ->
          ignore (check_equivalent mode_name mode scenario_name spec))
        modes)
    scenarios

let test_reuse_happens () =
  (* The paper system needs several global iterations; with dependency
     tracking, later iterations must skip untouched resources and keep
     most derived streams. *)
  let inc =
    check_equivalent "hierarchical" Engine.Hierarchical "paper"
      (Scenarios.Paper_system.spec ())
  in
  Alcotest.(check bool) "iterates more than once" true (inc.iterations > 1);
  Alcotest.(check bool)
    "some local analyses were reused" true
    (inc.Engine.stats.resources_reused > 0);
  let total = inc.stats.resources_analysed + inc.stats.resources_reused in
  let resources = List.length inc.spec.Cpa_system.Spec.resources in
  Alcotest.(check int)
    "every resource visited every iteration" (resources * inc.iterations)
    total

let test_non_incremental_never_reuses () =
  let full =
    ok
      (Engine.analyse ~incremental:false
         (Scenarios.Paper_system.spec ()))
  in
  Alcotest.(check int) "no reuse" 0 full.Engine.stats.resources_reused;
  Alcotest.(check int) "no invalidation bookkeeping" 0
    full.stats.streams_invalidated

(* ------------------------------------------------------------------ *)
(* Warm sessions against cold analyses *)

(* The paper system plus a second CPU: T4 OR-combines T1's output, the
   sig2 receiver stream of the three-receiver frame F1 and source S4;
   T5 reads S4 directly and T6 follows T4. *)
let or_spec () =
  let spec = Scenarios.Paper_system.spec () in
  let task name prio cet activation =
    Spec.task ~name ~resource:"CPU2" ~cet:(Interval.point cet) ~priority:prio
      ~activation ()
  in
  {
    spec with
    Spec.resources =
      spec.Spec.resources @ [ Spec.resource ~name:"CPU2" Spec.Spp ];
    tasks =
      spec.Spec.tasks
      @ [
          task "T4" 1 10
            (Spec.Or_of
               [
                 Spec.From_output "T1";
                 Spec.From_signal { frame = "F1"; signal = "sig2" };
                 Spec.From_source "S4";
               ]);
          task "T5" 2 8 (Spec.From_source "S4");
          task "T6" 3 12 (Spec.From_output "T4");
        ];
  }

(* replaces one task's activation: an edit no [Space.edit] expresses *)
let set_activation task activation spec =
  {
    spec with
    Spec.tasks =
      List.map
        (fun (k : Spec.task) ->
          if String.equal k.task_name task then { k with activation } else k)
        spec.Spec.tasks;
  }

(* the rendered bounds and status; a warm session may reach the same
   fixed point in fewer iterations, so the count is left out *)
let rendered r =
  Format.asprintf "%a" Cpa_system.Report.print_outcomes r
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
       not (String.starts_with ~prefix:"converged:" line))
  |> String.concat "\n"
  |> fun bounds -> bounds ^ Engine.status_name r.Engine.status

type step = {
  label : string;
  apply : Spec.t -> Spec.t;
  touched : Spec.t -> string list * string list;  (** sources, elements *)
}

let edit e =
  {
    label = Space.edit_label e;
    apply = (fun spec -> Space.apply spec e);
    touched = (fun spec -> Space.touched spec e);
  }

let activation_edit task activation =
  {
    label = task ^ " activation";
    apply = set_activation task activation;
    touched = (fun _ -> [], [ task ]);
  }

(* One warm session per mode runs [steps] in order; after each, its
   rendered outcomes must equal a cold analysis of the edited spec. *)
let check_warm_steps spec steps =
  List.iter
    (fun (mode_name, mode) ->
      let w, r0 = ok (Engine.warm ~mode spec) in
      Alcotest.(check string)
        (mode_name ^ ": initial warm = cold")
        (rendered (ok (Engine.analyse ~mode spec)))
        (rendered r0);
      ignore
        (List.fold_left
           (fun before step ->
             let after = step.apply before in
             let sources, elements = step.touched before in
             let stale =
               List.sort_uniq String.compare
                 (Engine.affected before ~sources ~elements
                 @ Engine.affected after ~sources ~elements)
             in
             let warm = ok (Engine.warm_update w ~spec:after ~stale) in
             Alcotest.(check string)
               (Printf.sprintf "%s: %s: warm = cold" mode_name step.label)
               (rendered (ok (Engine.analyse ~mode after)))
               (rendered warm);
             after)
           spec steps))
    modes

let test_warm_upstream_of_or () =
  check_warm_steps (or_spec ())
    (List.map edit
       [
         Space.Source_period { source = "S1"; period = 300 };
         Space.Task_priority { task = "T1"; priority = 4 };
         Space.Cet_scale { task = "T1"; percent = 150 };
         Space.Source_jitter
           { source = "S4"; period = 400; jitter = 120; d_min = 10 };
         Space.Task_priority { task = "T1"; priority = 1 };
         Space.Source_period { source = "S1"; period = 250 };
       ])

(* F1 feeds T1-T3 and T4: in flat_sem every receiver shares one fitted
   SEM of F1's outer stream, which each edit must refresh *)
let test_warm_frame_receivers () =
  check_warm_steps (or_spec ())
    (List.map edit
       [
         Space.Frame_tx { frame = "F1"; tx = Interval.make ~lo:3 ~hi:9 };
         Space.Source_period { source = "S2"; period = 300 };
         Space.Frame_priority { frame = "F1"; priority = 3 };
         Space.Frame_tx { frame = "F1"; tx = Interval.point 4 };
       ])

(* A task's own activation changes.  T5's entry depends on no response
   at all, so only removal by key can retire it. *)
let test_warm_own_activation () =
  check_warm_steps (or_spec ())
    [
      activation_edit "T5" (Spec.From_source "S2");
      activation_edit "T4"
        (Spec.Or_of [ Spec.From_output "T1"; Spec.From_source "S4" ]);
      activation_edit "T5" (Spec.From_output "T2");
      activation_edit "T4" (Spec.From_signal { frame = "F1"; signal = "sig3" });
    ]

(* The same sessions on the curve backend: every resource on RTC (EDF
   stays on CPA), and RTC alternating with CPA.  CPU2 is an RTC
   static-priority resource in both forms, so its CET and priority edits
   re-analyse RTC items next to items whose inputs did not move. *)
let rtc_steps =
  List.map edit
    [
      Space.Cet_scale { task = "T5"; percent = 150 };
      Space.Task_priority { task = "T5"; priority = 1 };
      Space.Source_period { source = "S4"; period = 300 };
      Space.Cet_scale { task = "T4"; percent = 80 };
      Space.Task_priority { task = "T4"; priority = 3 };
      Space.Cet_scale { task = "T1"; percent = 150 };
      Space.Frame_tx { frame = "F1"; tx = Interval.make ~lo:3 ~hi:9 };
      Space.Task_priority { task = "T5"; priority = 2 };
    ]

let test_warm_forced_rtc () =
  check_warm_steps (Verify.Oracle.forced_backend Spec.Rtc (or_spec ()))
    rtc_steps

let test_warm_mixed_backend () =
  check_warm_steps (Verify.Oracle.mixed_backend (or_spec ())) rtc_steps

let () =
  Alcotest.run "engine_incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all modes, all scenarios" `Quick
            test_modes_equivalent;
        ] );
      ( "incrementality",
        [
          Alcotest.test_case "reuses unchanged resources" `Quick
            test_reuse_happens;
          Alcotest.test_case "non-incremental baseline" `Quick
            test_non_incremental_never_reuses;
        ] );
      ( "warm sessions",
        [
          Alcotest.test_case "edits upstream of an OR activation" `Quick
            test_warm_upstream_of_or;
          Alcotest.test_case "edits to a frame with several receivers" `Quick
            test_warm_frame_receivers;
          Alcotest.test_case "edits to a task's own activation" `Quick
            test_warm_own_activation;
          Alcotest.test_case "edits on the rtc backend" `Quick
            test_warm_forced_rtc;
          Alcotest.test_case "edits on mixed backends" `Quick
            test_warm_mixed_backend;
        ] );
    ]
