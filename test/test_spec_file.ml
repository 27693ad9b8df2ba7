(* Tests for the textual system-description format: parsing, printing,
   round-trips, error reporting, and equivalence of a parsed paper
   description with the built-in reference system. *)

module Interval = Timebase.Interval
module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module Engine = Cpa_system.Engine

let parse_ok text =
  match Spec_file.parse text with
  | Ok d -> d
  | Error e -> Alcotest.failf "parse failed: %s" e

let minimal =
  {|
  (system
    (source s (periodic 100))
    (resource cpu spp)
    (task t (resource cpu) (cet 10 10) (priority 1)
      (activation (source s))))
  |}

let test_parse_minimal () =
  let d = parse_ok minimal in
  Alcotest.(check int) "sources" 1 (List.length d.Spec_file.sources);
  Alcotest.(check int) "resources" 1 (List.length d.Spec_file.resources);
  Alcotest.(check int) "tasks" 1 (List.length d.Spec_file.tasks);
  let task = List.nth d.Spec_file.tasks 0 in
  Alcotest.(check string) "task name" "t" task.Spec.task_name;
  Alcotest.(check bool) "cet" true (Interval.equal (Interval.point 10) task.Spec.cet)

let test_parse_comments_and_whitespace () =
  let d =
    parse_ok
      {|
      ; leading comment
      (system
        (source s (periodic 100)) ; trailing comment
        (resource cpu spp))
      |}
  in
  Alcotest.(check int) "parsed through comments" 1
    (List.length d.Spec_file.sources)

let test_all_source_kinds () =
  let d =
    parse_ok
      {|
      (system
        (source a (periodic 10))
        (source b (periodic-jitter 100 30))
        (source c (periodic-jitter 100 30 5))
        (source d (sporadic 50))
        (source e (burst 200 3 10)))
      |}
  in
  let desc name =
    (List.find (fun s -> s.Spec_file.source_name = name) d.Spec_file.sources)
      .Spec_file.desc
  in
  Alcotest.(check bool) "periodic" true (desc "a" = Spec_file.Periodic 10);
  Alcotest.(check bool) "jitter default d" true
    (desc "b" = Spec_file.Periodic_jitter { period = 100; jitter = 30; d_min = 1 });
  Alcotest.(check bool) "jitter explicit d" true
    (desc "c" = Spec_file.Periodic_jitter { period = 100; jitter = 30; d_min = 5 });
  Alcotest.(check bool) "sporadic" true (desc "d" = Spec_file.Sporadic 50);
  Alcotest.(check bool) "burst" true
    (desc "e" = Spec_file.Burst { period = 200; burst = 3; d_min = 10 })

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_backend_annotation () =
  let d =
    parse_ok
      {|
      (system
        (resource cpu spp (backend rtc))
        (resource bus spnp)
        (resource io tdma (backend cpa)))
      |}
  in
  let backend name =
    (List.find (fun r -> r.Spec.res_name = name) d.Spec_file.resources)
      .Spec.backend
  in
  Alcotest.(check bool) "explicit rtc" true (backend "cpu" = Spec.Rtc);
  Alcotest.(check bool) "default cpa" true (backend "bus" = Spec.Cpa);
  Alcotest.(check bool) "explicit cpa" true (backend "io" = Spec.Cpa);
  let printed = Spec_file.print d in
  Alcotest.(check bool) "roundtrip equal" true
    (Spec_file.equal d (parse_ok printed));
  Alcotest.(check bool) "rtc backend printed" true
    (contains ~needle:"(backend rtc)" printed);
  (* the default backend prints without an annotation, keeping digests
     of pure-CPA descriptions stable *)
  Alcotest.(check bool) "default backend not printed" false
    (contains ~needle:"(backend cpa)" printed);
  match Spec_file.parse "(system (resource cpu spp (backend magic)))" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend must be rejected"

let test_parse_errors () =
  let fails text =
    match Spec_file.parse text with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "not a system" true (fails "(frobnicate)");
  Alcotest.(check bool) "unbalanced" true (fails "(system (source s");
  Alcotest.(check bool) "bad scheduler" true
    (fails "(system (resource r quantum))");
  Alcotest.(check bool) "bad integer" true
    (fails "(system (source s (periodic ten)))");
  Alcotest.(check bool) "missing cet" true
    (fails
       "(system (resource cpu spp) (task t (resource cpu) (priority 1) \
        (activation (source s))))");
  Alcotest.(check bool) "unknown section" true
    (fails "(system (gadget g))");
  Alcotest.(check bool) "empty field" true
    (fails
       "(system (resource cpu spp) (task t (resource) (cet 1 1) (priority 1) \
        (activation (source s))))");
  Alcotest.(check bool) "trailing garbage" true
    (fails "(system) extra")

(* the test binary runs from the test directory under `dune runtest` but
   from the workspace root under `dune exec` *)
let file_text basename =
  let candidates =
    [ basename; "_build/default/test/" ^ basename;
      "examples/specs/" ^ basename ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "%s not found" basename
  | Some path ->
    let ic = open_in path in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    contents

let paper_file_text () = file_text "paper_gateway.scm"

let test_roundtrip_paper_file () =
  let d = parse_ok (paper_file_text ()) in
  let reprinted = parse_ok (Spec_file.print d) in
  Alcotest.(check bool) "roundtrip equal" true (Spec_file.equal d reprinted)

let test_roundtrip_rich_description () =
  let d =
    parse_ok
      {|
      (system
        (source a (periodic-jitter 100 30 5))
        (source b (sporadic 50))
        (resource bus spnp)
        (resource link tdma)
        (resource cpu edf)
        (frame f (bus bus) (send mixed 500) (tx 2 4) (priority 7)
          (signal x triggering (source a))
          (signal y pending (output t2)))
        (task t1 (resource link) (cet 3 6) (priority 1) (service 4)
          (activation (or (signal f x) (and (frame f) (source b)))))
        (task t2 (resource cpu) (cet 5 5) (priority 2) (deadline 80)
          (activation (source b))))
      |}
  in
  let reprinted = parse_ok (Spec_file.print d) in
  Alcotest.(check bool) "roundtrip equal" true (Spec_file.equal d reprinted)

let test_to_spec_matches_builtin () =
  (* the shipped paper_gateway.scm analyses to the same responses as the
     built-in reference system (modulo element names) *)
  let spec = Spec_file.to_spec (parse_ok (paper_file_text ())) in
  match
    ( Engine.analyse ~mode:Engine.Hierarchical spec,
      Engine.analyse ~mode:Engine.Hierarchical (Scenarios.Paper_system.spec ()) )
  with
  | Ok from_file, Ok builtin ->
    List.iter2
      (fun file_name builtin_name ->
        Alcotest.(check (option (pair int int)))
          (file_name ^ " matches " ^ builtin_name)
          (Option.map
             (fun i -> Interval.lo i, Interval.hi i)
             (Engine.response builtin builtin_name))
          (Option.map
             (fun i -> Interval.lo i, Interval.hi i)
             (Engine.response from_file file_name)))
      [ "f1"; "f2"; "t1"; "t2"; "t3" ]
      [ "F1"; "F2"; "T1"; "T2"; "T3" ]
  | Error e, _ | _, Error e ->
    Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

let test_avionics_file_matches_builtin () =
  (* the shipped avionics.scm mirrors Scenarios.Avionics exactly *)
  let from_file = Spec_file.to_spec (parse_ok (file_text "avionics.scm")) in
  let builtin = Scenarios.Avionics.spec () in
  match
    ( Engine.analyse ~mode:Engine.Hierarchical from_file,
      Engine.analyse ~mode:Engine.Hierarchical builtin )
  with
  | Ok a, Ok b ->
    Alcotest.(check bool) "both converge" true
      (a.Engine.converged && b.Engine.converged);
    List.iter
      (fun name ->
        Alcotest.(check (option (pair int int)))
          name
          (Option.map
             (fun i -> Interval.lo i, Interval.hi i)
             (Engine.response b name))
          (Option.map
             (fun i -> Interval.lo i, Interval.hi i)
             (Engine.response a name)))
      Scenarios.Avionics.all_elements
  | Error e, _ | _, Error e ->
    Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

let test_print_is_parsable_spec () =
  (* printing then converting still validates *)
  let d = parse_ok minimal in
  let spec = Spec_file.to_spec (parse_ok (Spec_file.print d)) in
  Alcotest.(check bool) "valid" true (Spec.validate spec = Ok ())

(* ------------------------------------------------------------------ *)
(* qcheck: print/parse round-trip and digest properties on randomly
   generated descriptions *)

let gen_description =
  let open QCheck.Gen in
  let gen_source i =
    let name = Printf.sprintf "src%d" i in
    let* desc =
      oneof
        [
          map (fun p -> Spec_file.Periodic p) (int_range 50 2000);
          map2
            (fun p j ->
              Spec_file.Periodic_jitter { period = p; jitter = j; d_min = 1 })
            (int_range 50 2000) (int_range 1 40);
          map (fun d -> Spec_file.Sporadic d) (int_range 20 500);
          map2
            (fun p b -> Spec_file.Burst { period = p; burst = b; d_min = 5 })
            (int_range 200 2000) (int_range 2 4);
        ]
    in
    return { Spec_file.source_name = name; desc }
  in
  let gen_mode = oneofl Event_model.Propagation.all_modes in
  let gen_task i n_sources =
    let* src = int_range 0 (n_sources - 1) in
    let* lo = int_range 1 20 in
    let* extra = int_range 0 10 in
    let* propagation = opt gen_mode in
    return
      (Spec.task
         ~name:(Printf.sprintf "tsk%d" i)
         ~resource:"cpu"
         ~cet:(Interval.make ~lo ~hi:(lo + extra))
         ~priority:(i + 1)
         ?propagation
         ~activation:(Spec.From_source (Printf.sprintf "src%d" src))
         ())
  in
  let* n_sources = int_range 1 4 in
  let* sources =
    flatten_l (List.init n_sources (fun i -> gen_source i))
  in
  let* n_tasks = int_range 1 4 in
  let* tasks =
    flatten_l (List.init n_tasks (fun i -> gen_task i n_sources))
  in
  let* default_propagation = gen_mode in
  return
    {
      Spec_file.sources;
      resources = [ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend = Spec.Cpa } ];
      tasks;
      frames = [];
      default_propagation;
    }

let arb_description =
  QCheck.make
    ~print:(fun d -> Spec_file.print d)
    gen_description

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"parse (print d) = Ok d" ~count:100 arb_description
    (fun d ->
      match Spec_file.parse (Spec_file.print d) with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok d' -> Spec_file.equal d d')

let prop_digest_reorder_invariant =
  QCheck.Test.make ~name:"digest invariant under element reordering"
    ~count:60 arb_description (fun d ->
      let spec = Spec_file.to_spec d in
      let permuted =
        Spec_file.to_spec
          {
            d with
            Spec_file.sources = List.rev d.Spec_file.sources;
            tasks = List.rev d.Spec_file.tasks;
          }
      in
      String.equal (Spec.digest spec) (Spec.digest permuted))

let prop_digest_edit_sensitive =
  QCheck.Test.make ~name:"digest changes under a cet edit" ~count:60
    (QCheck.pair arb_description (QCheck.int_range 101 400))
    (fun (d, percent) ->
      let spec = Spec_file.to_spec d in
      let task = (List.hd d.Spec_file.tasks).Spec.task_name in
      let edited = Explore.Space.scale_cet spec ~task ~percent in
      (* percent > 100 strictly grows a positive cet after rounding up,
         so the digest must differ *)
      not (String.equal (Spec.digest spec) (Spec.digest edited)))

let () =
  Alcotest.run "spec_file"
    [
      ( "parse",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "comments" `Quick test_parse_comments_and_whitespace;
          Alcotest.test_case "source kinds" `Quick test_all_source_kinds;
          Alcotest.test_case "backend annotation" `Quick
            test_backend_annotation;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "paper file" `Quick test_roundtrip_paper_file;
          Alcotest.test_case "rich description" `Quick
            test_roundtrip_rich_description;
          Alcotest.test_case "to_spec equivalence" `Quick
            test_to_spec_matches_builtin;
          Alcotest.test_case "avionics file" `Quick
            test_avionics_file_matches_builtin;
          Alcotest.test_case "print validates" `Quick test_print_is_parsable_spec;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_print_parse_roundtrip;
            prop_digest_reorder_invariant;
            prop_digest_edit_sensitive;
          ] );
    ]
