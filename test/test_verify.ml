(* Tests for the self-verification layer: the invariant sanitizer must
   accept every well-formed stream, detect every seeded defect, and the
   differential oracles must pass on the shipped systems. *)

module Time = Timebase.Time
module Stream = Event_model.Stream
module Curve = Event_model.Curve
module Violation = Verify.Violation
module Sanitizer = Verify.Stream
module Oracle = Verify.Oracle
module Fuzz = Verify.Fuzz

(* ------------------------------------------------------------------ *)
(* sanitizer: clean on well-formed streams *)

let well_formed =
  [
    Stream.periodic ~name:"p" ~period:250;
    Stream.periodic_jitter ~name:"pj" ~period:450 ~jitter:90 ();
    Stream.periodic_jitter ~name:"pj0" ~period:100 ~jitter:3000 ~d_min:0 ();
    Stream.periodic_burst ~name:"pb" ~period:1000 ~burst:5 ~d_min:10;
    Stream.sporadic ~name:"sp" ~d_min:100;
  ]

let test_clean_on_well_formed () =
  List.iter
    (fun s ->
      let violations = Sanitizer.check s in
      Alcotest.(check int)
        (Stream.name s ^ ": no findings at all")
        0
        (List.length violations))
    well_formed

let test_clean_on_derived_streams () =
  (* streams produced by the analysis operators stay clean too *)
  let a = Stream.periodic ~name:"a" ~period:250
  and b = Stream.periodic_jitter ~name:"b" ~period:450 ~jitter:40 () in
  let derived =
    [
      Event_model.Combine.or_combine [ a; b ];
      Event_model.Shaper.enforce_min_distance ~d:30 b;
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Stream.name s ^ ": clean")
        true
        (Sanitizer.is_clean (Sanitizer.check s)))
    derived

(* ------------------------------------------------------------------ *)
(* sanitizer: seeded defects are detected *)

let has_violation ~invariant violations =
  List.exists (fun (v : Violation.t) -> String.equal v.invariant invariant)
    violations

let test_detects_nonmonotone () =
  let bad =
    Stream.make ~name:"bad"
      ~delta_min:(fun n -> Time.of_int (Stdlib.max 0 (500 - (n * 10))))
      ~delta_plus:(fun n -> Time.of_int (n * 1000))
  in
  let violations = Sanitizer.check bad in
  Alcotest.(check bool) "monotone violation found" true
    (has_violation ~invariant:"monotone" violations);
  Alcotest.(check bool) "is an error" true
    (List.exists Violation.is_error violations);
  (* the witness names a concrete offending index *)
  Alcotest.(check bool) "witness present" true
    (List.exists
       (fun (v : Violation.t) -> v.witness <> None)
       (Violation.errors violations))

let test_detects_order_violation () =
  let bad =
    Stream.make ~name:"crossed"
      ~delta_min:(fun n -> Time.of_int ((n - 1) * 100))
      ~delta_plus:(fun n -> Time.of_int ((n - 1) * 90))
  in
  Alcotest.(check bool) "order violation found" true
    (has_violation ~invariant:"order" (Sanitizer.check bad))

let test_detects_zero_convention () =
  (* raw curves can break the n <= 1 convention (Stream.make clamps it) *)
  let curve = Curve.make (fun n -> Time.of_int ((n + 1) * 10)) in
  let violations = Sanitizer.check_curve ~subject:"raw" curve in
  Alcotest.(check bool) "zero violation found" true
    (has_violation ~invariant:"zero" violations)

let test_detects_additivity_gap_as_warning () =
  (* a superadditivity gap is conservative, so only a warning: delta_min
     grows like a step that violates delta(n+m-1) >= delta(n)+delta(m) *)
  let bad =
    Stream.make ~name:"gappy"
      ~delta_min:(fun n -> Time.of_int (if n <= 2 then (n - 1) * 100 else 100 + (n - 2)))
      ~delta_plus:(fun _ -> Time.Inf)
  in
  let violations = Sanitizer.check bad in
  Alcotest.(check bool) "superadditivity warning found" true
    (has_violation ~invariant:"delta_min.superadditive" violations);
  (* ...but it is not an error: the stream still counts as clean *)
  Alcotest.(check bool) "still clean" true (Sanitizer.is_clean violations)

let test_wrap_raises_on_bad_stream () =
  let bad =
    Stream.make ~name:"bad"
      ~delta_min:(fun n -> Time.of_int (Stdlib.max 0 (500 - (n * 10))))
      ~delta_plus:(fun n -> Time.of_int (n * 1000))
  in
  let wrapped = Sanitizer.wrap bad in
  Alcotest.(check string) "wrapper name" "bad!" (Stream.name wrapped);
  Alcotest.(check bool) "raises" true
    (match
       List.init 20 (fun n -> Stream.delta_min wrapped (n + 2))
     with
     | _ -> false
     | exception Failure _ -> true)

let test_wrap_transparent_on_good_stream () =
  let s = Stream.periodic_jitter ~name:"ok" ~period:250 ~jitter:40 () in
  let wrapped = Sanitizer.wrap s in
  for n = 0 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "delta_min %d" n)
      true
      (Time.equal (Stream.delta_min s n) (Stream.delta_min wrapped n));
    Alcotest.(check bool)
      (Printf.sprintf "delta_plus %d" n)
      true
      (Time.equal (Stream.delta_plus s n) (Stream.delta_plus wrapped n))
  done

let test_check_model_containment_warning () =
  (* an inner stream strictly faster than the outer violates packing
     containment (warning severity) *)
  let outer = Stream.periodic ~name:"outer" ~period:100 in
  let inner = Stream.periodic ~name:"inner" ~period:10 in
  let h =
    Hem.Model.make ~outer
      ~inners:
        [ { Hem.Model.label = "x"; kind = Hem.Model.Triggering; stream = inner } ]
      ~rule:Hem.Model.Packed
  in
  Alcotest.(check bool) "containment warning" true
    (has_violation ~invariant:"hierarchy.containment"
       (Sanitizer.check_model h))

(* ------------------------------------------------------------------ *)
(* oracles *)

let check_all_ok ~what checks =
  List.iter
    (fun (c : Oracle.check) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s (%s)" what c.Oracle.name c.Oracle.detail)
        true c.Oracle.ok)
    checks

let test_backend_agreement () =
  check_all_ok ~what:"backend" (Oracle.backend_agreement ())

let test_engine_agreement_paper () =
  let spec = Scenarios.Paper_system.spec () in
  List.iter
    (fun mode -> check_all_ok ~what:"engine" (Oracle.engine_agreement ~mode spec))
    [
      Cpa_system.Engine.Hierarchical;
      Cpa_system.Engine.Flat_stream;
      Cpa_system.Engine.Flat_sem;
    ]

(* one resource per busy-window policy and an OR activation: the kernel
   oracle must cover every optimised operator and find them all in
   agreement with Verify.Reference *)
let test_kernel_agreement_operators () =
  let spec =
    match
      Cpa_system.Spec_file.parse
        {|
        (system
          (source a (periodic-jitter 100 30 5))
          (source b (sporadic 50))
          (resource bus spnp)
          (resource cpu spp)
          (resource ecu edf)
          (frame f (bus bus) (send mixed 500) (tx 2 4) (priority 7)
            (signal x triggering (source a)))
          (task t1 (resource cpu) (cet 3 6) (priority 1)
            (activation (or (signal f x) (source b))))
          (task t2 (resource cpu) (cet 5 8) (priority 2)
            (activation (source a)))
          (task t3 (resource ecu) (cet 5 5) (priority 1) (deadline 80)
            (activation (output t1))))
        |}
    with
    | Ok d -> Cpa_system.Spec_file.to_spec d
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  match Cpa_system.Engine.analyse spec with
  | Error e -> Alcotest.fail (Guard.Error.to_string e)
  | Ok result ->
    let checks = Oracle.kernel_agreement result in
    check_all_ok ~what:"kernel" checks;
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " checked") true
          (List.exists (fun (c : Oracle.check) -> String.equal c.name name)
             checks))
      (List.map
         (Printf.sprintf "kernel[%s]:production=reference")
         [ "bus"; "cpu"; "ecu"; "or(upd(x),b)"; "t1.out"; "t3.out" ])

let test_verify_spec_paper () =
  let report =
    Oracle.verify_spec ~label:"paper" ~horizon:100_000
      ~generators:(Scenarios.Paper_system.generators ())
      (Scenarios.Paper_system.spec ())
  in
  check_all_ok ~what:"paper" report.Oracle.checks;
  Alcotest.(check int) "no violations" 0
    (List.length report.Oracle.violations);
  Alcotest.(check bool) "passed" true (Oracle.passed report)

let test_cache_agreement () =
  let base () = Scenarios.Paper_system.spec () in
  let variants =
    Explore.Space.grid
      [ Explore.Space.int_axis "S1.period"
          (fun period -> Explore.Space.Source_period { source = "S1"; period })
          [ 230; 250 ] ]
    @ [ { Explore.Space.label = "dup"; edits = [] } ]
  in
  let c = Oracle.cache_agreement ~base variants in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" c.Oracle.name c.Oracle.detail)
    true c.Oracle.ok

let test_negative_control () =
  (* a system whose declared source breaks the curve ordering must not
     verify cleanly: the engine's selfcheck hook has to flag it *)
  let crossed =
    Stream.make ~name:"crossed"
      ~delta_min:(fun n -> Time.of_int ((n - 1) * 100))
      ~delta_plus:(fun n -> Time.of_int ((n - 1) * 90))
  in
  let spec =
    Cpa_system.Spec.make
      ~sources:[ "s", crossed ]
      ~resources:[ { Cpa_system.Spec.res_name = "cpu"; scheduler = Cpa_system.Spec.Spp; backend = Cpa_system.Spec.Cpa } ]
      ~tasks:
        [
          Cpa_system.Spec.task ~name:"t" ~resource:"cpu"
            ~cet:(Timebase.Interval.point 10) ~priority:1
            ~activation:(Cpa_system.Spec.From_source "s") ();
        ]
      ()
  in
  let report = Oracle.verify_spec ~label:"broken" spec in
  Alcotest.(check bool) "flagged" false (Oracle.passed report);
  Alcotest.(check bool) "order violation reported" true
    (has_violation ~invariant:"order" report.Oracle.violations);
  (* with the sanitizer off the defect goes unnoticed: the checks alone
     pass, which is exactly why the selfcheck hook exists *)
  let off = Oracle.verify_spec ~label:"broken" ~selfcheck:false spec in
  Alcotest.(check int) "no violations collected when off" 0
    (List.length off.Oracle.violations)

(* ------------------------------------------------------------------ *)
(* fuzz harness *)

let test_fuzz_deterministic () =
  let a = Fuzz.of_seed 1234 and b = Fuzz.of_seed 1234 in
  Alcotest.(check string) "same label" a.Fuzz.label b.Fuzz.label;
  Alcotest.(check string) "same digest"
    (Cpa_system.Spec.digest (a.Fuzz.build ()))
    (Cpa_system.Spec.digest (b.Fuzz.build ()));
  let c = Fuzz.of_seed 1235 in
  (* different seeds almost always differ; these two do *)
  Alcotest.(check bool) "different seed differs" true
    (not
       (String.equal
          (Cpa_system.Spec.digest (a.Fuzz.build ()))
          (Cpa_system.Spec.digest (c.Fuzz.build ()))))

let test_fuzz_generators_match_sources () =
  List.iter
    (fun case ->
      let spec = case.Fuzz.build () in
      let sources = List.map fst spec.Cpa_system.Spec.sources in
      let gens = List.map fst case.Fuzz.generators in
      Alcotest.(check (list string))
        (case.Fuzz.label ^ ": one generator per source")
        (List.sort compare sources) (List.sort compare gens))
    (Fuzz.cases ~seed:77 ~count:10)

let prop_fuzzed_systems_verify =
  QCheck.Test.make ~name:"fuzzed systems verify clean" ~count:4
    (QCheck.int_range 0 10_000) (fun seed ->
      let report =
        Oracle.verify_case ~horizon:40_000 (Fuzz.of_seed seed)
      in
      if not (Oracle.passed report) then
        QCheck.Test.fail_reportf "%a" Oracle.pp_report report
      else true)

let () =
  Alcotest.run "verify"
    [
      ( "sanitizer",
        [
          Alcotest.test_case "clean on well-formed" `Quick
            test_clean_on_well_formed;
          Alcotest.test_case "clean on derived" `Quick
            test_clean_on_derived_streams;
          Alcotest.test_case "detects non-monotone" `Quick
            test_detects_nonmonotone;
          Alcotest.test_case "detects order violation" `Quick
            test_detects_order_violation;
          Alcotest.test_case "detects zero convention" `Quick
            test_detects_zero_convention;
          Alcotest.test_case "additivity gap is a warning" `Quick
            test_detects_additivity_gap_as_warning;
          Alcotest.test_case "wrap raises on bad stream" `Quick
            test_wrap_raises_on_bad_stream;
          Alcotest.test_case "wrap transparent on good stream" `Quick
            test_wrap_transparent_on_good_stream;
          Alcotest.test_case "model containment warning" `Quick
            test_check_model_containment_warning;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "backend agreement" `Quick test_backend_agreement;
          Alcotest.test_case "engine agreement (paper)" `Quick
            test_engine_agreement_paper;
          Alcotest.test_case "kernel agreement (every operator)" `Quick
            test_kernel_agreement_operators;
          Alcotest.test_case "verify_spec (paper)" `Slow test_verify_spec_paper;
          Alcotest.test_case "cache agreement" `Slow test_cache_agreement;
          Alcotest.test_case "negative control" `Quick test_negative_control;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "generators match sources" `Quick
            test_fuzz_generators_match_sources;
          QCheck_alcotest.to_alcotest ~long:true prop_fuzzed_systems_verify;
        ] );
    ]
