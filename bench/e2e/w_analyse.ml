(* The analyse_cold and analyse_rtc workloads: closed-loop passes over a
   corpus of spec texts, one thread.  Each analysis is the CLI analyse
   path, parse -> to_spec -> Engine.analyse -> Report.print_outcomes,
   and one pass analyses every item once. *)

module Spec_file = Cpa_system.Spec_file
module Engine = Cpa_system.Engine
module Interval = Timebase.Interval
module Busy_window = Scheduling.Busy_window

type kind =
  | Cold
  | Rtc

let workload = function Cold -> "analyse_cold" | Rtc -> "analyse_rtc"

type item = {
  name : string;
  text : string;
  mode : Engine.mode;
  desc : Spec_file.t option;  (** kept for simulation (RTC items) *)
}

let key it = it.name ^ "/" ^ Engine.mode_name it.mode

(* Smoke runs keep paper.rtc (checked against pure CPA) and
   network_8.mixed, which has every RTC scheduler next to CPA and EDF
   resources. *)
let smoke_rtc = [ "paper.rtc"; "network_8.mixed" ]

let items env = function
  | Cold ->
    List.concat_map
      (fun (e : Corpus.entry) ->
        List.map
          (fun mode -> { name = e.name; text = e.text; mode; desc = None })
          [ Engine.Hierarchical; Engine.Flat_sem ])
      (Corpus.cold ~root:env.Harness.root ~seed:env.seed)
  | Rtc ->
    List.filter_map
      (fun ((e : Corpus.entry), d) ->
        if env.smoke && not (List.mem e.name smoke_rtc) then None
        else
          Some
            { name = e.name; text = e.text; mode = Engine.Hierarchical;
              desc = Some d })
      (Corpus.rtc ~root:env.root ~seed:env.seed)

let render r = Format.asprintf "%a" Cpa_system.Report.print_outcomes r

let analyse it =
  match Spans.span "spec_file.parse" (fun () -> Spec_file.parse it.text) with
  | Error e -> Error ("parse: " ^ e)
  | Ok d -> (
    let spec = Spans.span "spec_file.to_spec" (fun () -> Spec_file.to_spec d) in
    match
      Spans.span "engine.analyse" (fun () -> Engine.analyse ~mode:it.mode spec)
    with
    | Error e -> Error (Guard.Error.to_string e)
    | Ok r -> (
      match r.status with
      | Engine.Degraded _ -> Error (Engine.status_name r.status)
      | Engine.Converged | Engine.Overloaded ->
        Ok (r, Spans.span "report.render" (fun () -> render r))))

let pass items =
  Spans.span "pass" (fun () ->
    Array.mapi (fun i it -> Spans.span ~req:(i + 1) "analysis" (fun () -> analyse it)) items)

(* ------------------------------------------------------------------ *)
(* References *)

let interval_of (o : Engine.element_outcome) =
  match o.outcome with
  | Busy_window.Bounded i -> Some i
  | Busy_window.Unbounded _ -> None

let bounds_tokens (r : Engine.result) =
  List.map
    (fun (o : Engine.element_outcome) ->
      match interval_of o with
      | Some i -> Printf.sprintf "%s=%d:%d" o.element (Interval.lo i) (Interval.hi i)
      | None -> o.element ^ "=-")
    r.outcomes

(* Table 3 of the paper, written out by hand. *)
let table3 = [ "t1", (24, 24); "t2", (32, 56); "t3", (40, 96) ]

let check_table3 t (r : Engine.result) =
  List.iter
    (fun (el, (lo, hi)) ->
      match Engine.response r el with
      | Some i when Interval.lo i = lo && Interval.hi i = hi -> ()
      | _ -> Harness.broken t "paper.spec: %s is not [%d:%d] (Table 3)" el lo hi)
    table3

let generator (s : Spec_file.source) =
  match s.desc with
  | Spec_file.Periodic period -> Des.Gen.periodic ~period ()
  | Spec_file.Periodic_jitter { period; jitter; _ } ->
    Des.Gen.periodic_jitter ~period ~jitter ()
  | Spec_file.Sporadic d_min -> Des.Gen.sporadic ~d_min ~slack:d_min ()
  | Spec_file.Burst _ -> invalid_arg "no simulator generator for burst sources"

let des_horizon = 200_000

(* Every bound must dominate the worst response a simulated trace of the
   same system shows. *)
let check_dominance t it (r : Engine.result) d =
  let generators =
    List.map (fun (s : Spec_file.source) -> s.source_name, generator s) d.Spec_file.sources
  in
  match Des.Simulator.run ~generators ~horizon:des_horizon (Spec_file.to_spec d) with
  | Error e -> Harness.broken t "%s: simulation failed: %s" it.name e
  | Ok trace ->
    List.iter
      (fun (o : Engine.element_outcome) ->
        match interval_of o, Des.Trace.worst_response trace o.element with
        | Some i, Some seen when seen > Interval.hi i ->
          Harness.broken t "%s: %s bound %d below simulated response %d" it.name
            o.element (Interval.hi i) seen
        | _ -> ())
      r.outcomes

(* RTC outcomes may tighten but never loosen against the golden bounds. *)
let check_rtc_golden t env it (r : Engine.result) =
  match
    Golden.find env.Harness.golden ~seed:env.seed ~workload:"analyse_rtc" ~key:it.name
  with
  | None -> Harness.broken t "%s: no golden bounds for seed %d" it.name env.seed
  | Some tokens ->
    List.iter
      (fun tok ->
        match String.split_on_char '=' tok with
        | [ el; bound ] -> (
          let now =
            List.find_opt (fun (o : Engine.element_outcome) -> o.element = el) r.outcomes
          in
          match now, String.split_on_char ':' bound with
          | None, _ -> Harness.broken t "%s: element %s missing" it.name el
          | Some _, [ "-" ] -> ()
          | Some o, [ lo; hi ] -> (
            match interval_of o with
            | Some i
              when Interval.lo i >= int_of_string lo && Interval.hi i <= int_of_string hi ->
              ()
            | _ -> Harness.broken t "%s: %s looser than golden [%s:%s]" it.name el lo hi)
          | _ -> Harness.broken t "malformed golden token %s" tok)
        | _ -> Harness.broken t "malformed golden token %s" tok)
      tokens

let check_reference t env kind items reference =
  Array.iteri
    (fun i it ->
      match reference.(i) with
      | Error e -> Harness.broken t "%s: %s" (key it) e
      | Ok (r, text) -> (
        if kind = Cold && it.name = "paper.spec" && it.mode = Engine.Hierarchical
        then check_table3 t r;
        match kind with
        | Cold -> (
          if Golden.covers env.Harness.golden ~seed:env.seed ~workload:"analyse_cold"
          then
            match
              Golden.find env.golden ~seed:env.seed ~workload:"analyse_cold"
                ~key:(key it)
            with
            | Some [ digest ] when digest = Golden.md5 text -> ()
            | _ -> Harness.broken t "%s: render differs from golden" (key it))
        | Rtc ->
          Option.iter (check_dominance t it r) it.desc;
          if Golden.covers env.golden ~seed:env.seed ~workload:"analyse_rtc" then
            check_rtc_golden t env it r))
    items;
  (* pure RTC must reproduce pure CPA exactly on the paper system *)
  if kind = Rtc then
    Array.iteri
      (fun i it ->
        if it.name = "paper.rtc" then
          let cpa = fst (Corpus.example ~root:env.Harness.root "examples/paper.spec") in
          match reference.(i), analyse { it with text = cpa.text } with
          | Ok (rtc, _), Ok (cpa, _) ->
            if List.map interval_of rtc.outcomes <> List.map interval_of cpa.outcomes then
              Harness.broken t "paper: pure RTC bounds differ from pure CPA"
          | _ -> Harness.broken t "paper: pure agreement not checked")
      items

(* ------------------------------------------------------------------ *)
(* Workload *)

let golden_lines env kind =
  let items = Array.of_list (items env kind) in
  let outputs = pass items in
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i it ->
            match outputs.(i), kind with
            | Ok (_, text), Cold ->
              [ Golden.line ~seed:env.Harness.seed ~workload:(workload kind) ~key:(key it)
                  [ Golden.md5 text ] ]
            | Ok (r, _), Rtc ->
              [ Golden.line ~seed:env.seed ~workload:(workload kind) ~key:it.name
                  (bounds_tokens r) ]
            | Error e, _ -> failwith (key it ^ ": " ^ e))
          items))

let layer_metrics ~items ~traced_ms acc =
  let us name = Spans.durations name in
  let sum = List.fold_left ( +. ) 0.0 in
  let bytes =
    Array.fold_left (fun n it -> n + String.length it.text) 0 items
  in
  let parse_us = us "spec_file.parse" in
  let pass_us = us "pass" in
  let parses_per_pass = Array.length items in
  let median_pass_us = Timing.median traced_ms *. 1e3 in
  let rtc_us =
    List.fold_left
      (fun s k -> s +. Replay.get acc ("hybrid.local_us." ^ k))
      0.0 [ "spp"; "spnp"; "tdma"; "round_robin" ]
  in
  let m = Timing.metric in
  let med name = m ~samples:(List.length (us name)) in
  [
    med "spec_file.parse" "spec_file.parse_us" "us" (Timing.median parse_us);
    m "spec_file.parse_mb_per_s" "MB/s"
      (float (bytes * (List.length parse_us / parses_per_pass)) /. sum parse_us);
    med "spec_file.to_spec" "spec_file.to_spec_us" "us"
      (Timing.median (us "spec_file.to_spec"));
    m "spec_file.parse_share" "ratio" (sum parse_us /. sum pass_us);
    med "report.render" "report.render_us" "us" (Timing.median (us "report.render"));
    med "engine.analyse" "engine.analyse_us" "us" (Timing.median (us "engine.analyse"));
    m "hybrid.rtc_share" "ratio" (rtc_us /. median_pass_us);
  ]
  @ Layers.of_replay acc

let run env kind =
  let t = Harness.tally () in
  let items = Array.of_list (items env kind) in
  let reference_text, setup_s =
    let reference, setup_s =
      Harness.repeated_setup env ~dispose:ignore (fun () -> pass items)
    in
    check_reference t env kind items reference;
    ( Array.map (function Ok (_, text) -> Some text | Error _ -> None) reference,
      setup_s )
  in
  let traced_ms = ref [] and untraced_ms = ref [] in
  let op i =
    (* traced runs alternate traced and untraced passes, so the gap
       between the two medians is the tracing overhead *)
    let traced = env.traced && i mod 2 = 0 in
    if traced then Spans.enable ();
    let outputs, ms = Timing.time_ms (fun () -> pass items) in
    Spans.disable ();
    if traced then traced_ms := ms :: !traced_ms else untraced_ms := ms :: !untraced_ms;
    Harness.attempt t (Array.length items);
    Array.iteri
      (fun i it ->
        match outputs.(i), reference_text.(i) with
        | Ok (_, text), Some expected when String.equal text expected -> ()
        | Ok _, _ -> Harness.fail t "%s: render differs from the first pass" (key it)
        | Error e, _ -> Harness.fail t "%s: %s" (key it) e)
      items;
    ms
  in
  let latencies, cpu_ms_per_op = Harness.closed_loop env op in
  let layers =
    if not env.traced then []
    else begin
      let acc = Replay.create () in
      Array.iter
        (fun it ->
          match analyse it with
          | Ok (r, _) ->
            Spans.enable ();
            Replay.all acc r;
            Spans.disable ()
          | Error _ -> ())
        items;
      layer_metrics ~items ~traced_ms:!traced_ms acc
      @ Harness.op_layers ~untraced:!untraced_ms ~traced:!traced_ms ~cpu_ms_per_op
    end
  in
  let stem = match kind with Cold -> "analyse" | Rtc -> "rtc" in
  {
    Harness.tally = t;
    end_to_end =
      Harness.end_to_end env ~setup_s ~latencies ~rss_mb:(Harness.self_rss_mb ());
    layers;
    named =
      Timing.p50_p90 (stem ^ ".pass_ms") "ms" latencies
      @ [ Harness.fail_ratio (stem ^ ".fail_ratio") t ];
  }
