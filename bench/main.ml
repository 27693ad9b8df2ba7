(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (section 6) plus the ablation and scaling experiments listed
   in DESIGN.md.

   Usage:
     dune exec bench/main.exe            # all tables, figures, ablations
     dune exec bench/main.exe -- table3  # a single experiment
     dune exec bench/main.exe -- explore # domain-pool scaling (BENCH_3.json)
     dune exec bench/main.exe -- scale   # pool scaling, network sweep (BENCH_6.json)
     dune exec bench/main.exe -- serve   # warm-session daemon storm (BENCH_serve.json)
     dune exec bench/main.exe -- propagation # per-mode tightness table (BENCH_9.json)
     dune exec bench/main.exe -- hybrid  # rtc/cpa/mixed backend table (BENCH_10.json)
   Experiments: tables table3 figure4 ablation-pending ablation-k scaling
   convergence baseline-models buffers cross-framework robustness validate
   explore scale serve propagation hybrid
   (explore, scale, serve, propagation and hybrid write BENCH_*.json
   files and are excluded from the no-argument sweep).  The work budgets
   and tightness claims behind these tables are tier-1 tests
   (test/test_registry.ml), not checks here. *)

module Time = Timebase.Time
module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Report = Cpa_system.Report
module Paper = Scenarios.Paper_system

let banner title =
  Printf.printf "\n=== %s ===\n" title

let ok = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "analysis failed: %s\n" (Guard.Error.to_string e);
    exit 1

let analyse_paper mode = ok (Engine.analyse ~mode (Paper.spec ()))

(* Telemetry section of the BENCH_*.json files: run [f] once with
   latency histograms on (untimed, so the measured loops above stay
   comparable across revisions), then snapshot counters + histograms.
   The snapshot prints compact, on one line, as the top-level "metrics"
   value. *)
let metrics_json ~warm =
  Obs.Hist.clear_all ();
  Obs.Hist.set_enabled true;
  warm ();
  Obs.Hist.set_enabled false;
  Obs.Json.to_string (Obs.Snapshot.to_json_value (Obs.Snapshot.capture ()))

(* ------------------------------------------------------------------ *)
(* E1/E2: Tables 1 and 2 — system parameters and bus analysis          *)

let tables () =
  banner "Table 1: Sources";
  Printf.printf "%-8s %-8s %s\n" "Source" "Period" "Type";
  List.iter
    (fun (name, period, kind) -> Printf.printf "%-8s %-8d %s\n" name period kind)
    [
      "S1", 250, "triggering";
      "S2", 450, "triggering";
      "S3", Paper.s3_period, "pending (period assumed, see DESIGN.md)";
      "S4", 400, "triggering";
    ];
  banner "Table 2: Bus (CAN - scheduled)";
  Printf.printf "%-8s %-14s %s\n" "Frame" "Payload size" "Priority";
  Printf.printf "%-8s %-14s %s\n" "F1" "[4:4]" "High";
  Printf.printf "%-8s %-14s %s\n" "F2" "[2:2]" "Low";
  let hem = analyse_paper Engine.Hierarchical in
  Printf.printf "\nDerived bus responses (both analysis modes agree):\n";
  List.iter
    (fun frame ->
      match Engine.response hem frame with
      | Some r -> Printf.printf "  %-4s R = %s\n" frame (Interval.to_string r)
      | None -> Printf.printf "  %-4s unbounded\n" frame)
    Paper.frames

(* ------------------------------------------------------------------ *)
(* E3: Table 3 — CPU worst-case response times, flat vs hierarchical   *)

let table3 () =
  banner "Table 3: CPU (SPP - scheduled), WCRT flat vs hierarchical";
  let flat, hem = ok (Paper.analyse_both ()) in
  Printf.printf "%-6s %-8s %-6s %10s %10s %8s\n" "Task" "CET" "Prio"
    "R+ flat" "R+ HEM" "Red.";
  let cets = [ "T1", "[24:24]", "High"; "T2", "[32:32]", "Med";
               "T3", "[40:40]", "Low" ] in
  List.iter2
    (fun (row : Report.comparison_row) (name, cet, prio) ->
      let hi = function
        | Some i -> string_of_int (Interval.hi i)
        | None -> "-"
      in
      let red =
        match row.reduction_pct with
        | Some p -> Printf.sprintf "%.1f%%" p
        | None -> "-"
      in
      Printf.printf "%-6s %-8s %-6s %10s %10s %8s\n" name cet prio
        (hi row.baseline) (hi row.improved) red)
    (Report.compare_results ~baseline:flat ~improved:hem ~names:Paper.cpu_tasks)
    cets;
  Printf.printf
    "(flat = standard event models, the paper's baseline; iterations: flat %d, hem %d)\n"
    flat.Engine.iterations hem.Engine.iterations

(* ------------------------------------------------------------------ *)
(* E4: Figure 4 — eta+ of frame F1 and the unpacked T1-T3 activations  *)

let figure4 () =
  banner "Figure 4: eta+ of F1 output and unpacked T1-T3 input streams";
  let hem = analyse_paper Engine.Hierarchical in
  let frame_out = hem.Engine.resolve (Spec.From_frame "F1") in
  let unpacked signal =
    hem.Engine.resolve (Spec.From_signal { frame = "F1"; signal })
  in
  let streams =
    [ "F1", frame_out;
      "T1", unpacked "sig1"; "T2", unpacked "sig2"; "T3", unpacked "sig3" ]
  in
  Printf.printf "%-8s" "dt";
  List.iter (fun (name, _) -> Printf.printf "%8s" name) streams;
  print_newline ();
  let rec dts t acc = if t > 2500 then List.rev acc else dts (t + 125) (t :: acc) in
  List.iter
    (fun dt ->
      Printf.printf "%-8d" dt;
      List.iter
        (fun (_, s) -> Printf.printf "%8s" (Count.to_string (Stream.eta_plus s dt)))
        streams;
      print_newline ())
    (dts 125 [])

(* ------------------------------------------------------------------ *)
(* A1: ablation — pending-signal period sweep                          *)

let ablation_pending () =
  banner "A1: pending source period sweep (T3 WCRT, flat vs HEM)";
  Printf.printf "%-12s %10s %10s %8s\n" "S3 period" "R+ flat" "R+ HEM" "Red.";
  List.iter
    (fun period ->
      let flat, hem = ok (Paper.analyse_both ~s3_period:period ()) in
      match Engine.response flat "T3", Engine.response hem "T3" with
      | Some f, Some h ->
        Printf.printf "%-12d %10d %10d %7.1f%%\n" period (Interval.hi f)
          (Interval.hi h)
          (100.0
          *. float_of_int (Interval.hi f - Interval.hi h)
          /. float_of_int (Interval.hi f))
      | _ -> Printf.printf "%-12d unbounded\n" period)
    [ 250; 500; 1000; 2000; 4000 ]

(* ------------------------------------------------------------------ *)
(* A2: ablation — the simultaneity term (k-1) r- of Definition 9       *)

let ablation_k () =
  banner "A2: inner-update simultaneity term (Def. 9)";
  let pre = (analyse_paper Engine.Hierarchical).Engine.pre_bus_hierarchy "F1" in
  let response = Interval.make ~lo:4 ~hi:10 in
  let k_true = Hem.Inner_update.simultaneity (Hem.Model.outer pre) in
  let with_k k =
    Hem.Deconstruct.unpack_label
      (Hem.Inner_update.apply_response ~simultaneity:k ~response pre)
      "sig1"
  in
  let sound = with_k k_true in
  let ablated = with_k 1 in
  Printf.printf
    "computed k = %d; delta_min of unpacked sig1 with the term vs without:\n"
    k_true;
  Printf.printf "%-6s %12s %14s\n" "n" "with (k=2)" "ablated (k=1)";
  List.iter
    (fun n ->
      Printf.printf "%-6d %12s %14s\n" n
        (Time.to_string (Stream.delta_min sound n))
        (Time.to_string (Stream.delta_min ablated n)))
    [ 2; 3; 4; 5; 8 ];
  Printf.printf
    "(dropping the term is optimistic: it ignores serialization behind\n\
    \ simultaneously packed frames)\n"

(* ------------------------------------------------------------------ *)
(* A3: scaling — signals per frame                                     *)

let scaling () =
  banner "A3: signals per frame vs analysis gap (lowest-priority receiver)";
  Printf.printf "%-9s %10s %10s %8s %6s\n" "signals" "R+ flat" "R+ HEM" "Red."
    "iters";
  List.iter
    (fun n ->
      let spec = Scenarios.Synthetic.fan_in ~signals:n () in
      let flat = ok (Engine.analyse ~mode:Engine.Flat_sem spec) in
      let hem = ok (Engine.analyse ~mode:Engine.Hierarchical spec) in
      let last = Printf.sprintf "T%d" n in
      match Engine.response flat last, Engine.response hem last with
      | Some f, Some h ->
        Printf.printf "%-9d %10d %10d %7.1f%% %6d\n" n (Interval.hi f)
          (Interval.hi h)
          (100.0
          *. float_of_int (Interval.hi f - Interval.hi h)
          /. float_of_int (Interval.hi f))
          hem.Engine.iterations
      | _ -> Printf.printf "%-9d flat overloaded\n" n)
    [ 2; 3; 4; 5; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* A4: global fixed-point convergence                                  *)

let convergence () =
  banner "A4: global iteration counts";
  Printf.printf "%-28s %8s %8s %6s\n" "system" "elements" "iters" "conv";
  let row label spec mode =
    match Engine.analyse ~mode spec with
    | Ok result ->
      Printf.printf "%-28s %8d %8d %6b\n" label
        (List.length result.Engine.outcomes)
        result.Engine.iterations result.Engine.converged
    | Error e ->
      Printf.printf "%-28s error: %s\n" label (Guard.Error.to_string e)
  in
  List.iter
    (fun stages ->
      row
        (Printf.sprintf "pipeline chain (%d stages)" stages)
        (Scenarios.Synthetic.chain ~stages ())
        Engine.Hierarchical)
    [ 2; 4; 8; 12 ];
  row "paper system (flat)" (Paper.spec ()) Engine.Flat_sem;
  row "paper system (hem)" (Paper.spec ()) Engine.Hierarchical;
  row "two-hop gateway (flat)" (Scenarios.Gateway.spec ()) Engine.Flat_sem;
  row "two-hop gateway (hem)" (Scenarios.Gateway.spec ()) Engine.Hierarchical;
  row "avionics full stack" (Scenarios.Avionics.spec ()) Engine.Hierarchical

(* ------------------------------------------------------------------ *)
(* B1: accuracy of the related-work single-stream models               *)

let baseline_models () =
  banner "B1: single-stream model accuracy (related work [1], [4])";
  (* an irregular CAN-like burst: three events at offsets 0, 5, 100,
     repeating every 1000 *)
  let seq =
    Baselines.Event_sequence.make ~outer_period:1000
      ~inner_offsets:[ 0; 5; 100 ] ()
  in
  let exact = Baselines.Event_sequence.to_stream seq in
  let vector =
    Baselines.Event_vector.make
      [
        { Baselines.Event_vector.offset = 0; cycle = Time.of_int 1000 };
        { Baselines.Event_vector.offset = 5; cycle = Time.of_int 1000 };
        { Baselines.Event_vector.offset = 100; cycle = Time.of_int 1000 };
      ]
  in
  let sem =
    Event_model.Sem.to_stream (Baselines.Event_sequence.sem_approximation seq)
  in
  Printf.printf
    "eta+ bounds for the pattern {0, 5, 100} @ 1000 (lower = tighter):\n";
  Printf.printf "%-8s %12s %14s %12s\n" "dt" "hier. seq." "event vector" "SEM fit";
  List.iter
    (fun dt ->
      Printf.printf "%-8d %12s %14d %12s\n" dt
        (Count.to_string (Stream.eta_plus exact dt))
        (Baselines.Event_vector.eta_plus vector dt)
        (Count.to_string (Stream.eta_plus sem dt)))
    [ 6; 50; 101; 500; 1000; 1500; 2000 ];
  Printf.printf
    "(hierarchical sequences and event vectors describe the single stream\n\
    \ exactly; the standard event model over-approximates — but only the\n\
    \ paper's hierarchical event models keep *combined* streams separable)\n"

(* ------------------------------------------------------------------ *)
(* B2: activation buffer bounds (extension)                            *)

let buffers () =
  banner "B2: activation queue bounds vs simulation (paper system)";
  let f1_act =
    Event_model.Combine.or_combine
      [
        Stream.periodic ~name:"S1" ~period:250;
        Stream.periodic ~name:"S2" ~period:450;
      ]
  in
  let f1 =
    Scheduling.Rt_task.make ~name:"F1" ~cet:(Interval.point 4) ~priority:1
      ~activation:f1_act
  in
  let f2 =
    Scheduling.Rt_task.make ~name:"F2" ~cet:(Interval.point 2) ~priority:2
      ~activation:(Stream.periodic ~name:"S4" ~period:400)
  in
  let bound task others =
    match Scheduling.Spnp.backlog_bound ~task ~others () with
    | Ok depth -> string_of_int depth
    | Error e -> e
  in
  let spec = Paper.spec () in
  let generators = Paper.generators () in
  match Des.Simulator.run ~generators ~horizon:1_000_000 spec with
  | Error e -> Printf.printf "simulation failed: %s\n" e
  | Ok trace ->
    Printf.printf "%-6s %14s %14s\n" "elem" "queue bound" "observed max";
    let observed name =
      match Des.Trace.max_queue_depth trace name with
      | Some d -> string_of_int d
      | None -> "-"
    in
    Printf.printf "%-6s %14s %14s\n" "F1" (bound f1 [ f2 ]) (observed "F1");
    Printf.printf "%-6s %14s %14s\n" "F2" (bound f2 [ f1 ]) (observed "F2")

(* ------------------------------------------------------------------ *)
(* B3: cross-framework comparison — busy window vs real-time calculus   *)

let cross_framework () =
  banner "B3: busy-window CPA vs real-time calculus (SPP CPU of Table 3)";
  (* the CPU side of the paper's system, with the hierarchical activation
     streams, analysed by both frameworks; the RTC side is the local
     analysis the engine runs for a resource declared [rtc] *)
  let hem = analyse_paper Engine.Hierarchical in
  let items =
    List.filter_map
      (fun (k : Spec.task) ->
        if List.mem k.task_name Paper.cpu_tasks then
          Some
            {
              Hybrid.Local.name = k.task_name;
              cet = k.cet;
              priority = k.priority;
              service = None;
              activation = hem.Engine.resolve k.activation;
            }
        else None)
      (Paper.spec ()).Spec.tasks
  in
  let rtc_results = Hybrid.Local.analyse ~policy:Hybrid.Local.Spp items in
  Printf.printf "%-6s %18s %12s\n" "task" "busy window R+" "RTC delay";
  List.iter
    (fun (o : Hybrid.Local.outcome) ->
      let bw =
        match Engine.response hem o.name with
        | Some r -> string_of_int (Interval.hi r)
        | None -> "-"
      in
      let delay =
        match o.response with
        | Scheduling.Busy_window.Bounded r -> string_of_int (Interval.hi r)
        | Scheduling.Busy_window.Unbounded _ -> "unbounded"
      in
      Printf.printf "%-6s %18s %12s\n" o.name bw delay)
    rtc_results;
  Printf.printf
    "(both frameworks bound the same system; small differences stem from\n\
    \ the numeric curve horizon and the remaining-service abstraction)\n"

(* ------------------------------------------------------------------ *)
(* R1: robustness — transfer properties under frame loss               *)

let robustness () =
  banner "R1: signal delivery under injected frame loss (500k units)";
  let spec = Paper.spec () in
  let generators = Paper.generators () in
  Printf.printf "%-8s %14s %14s %16s\n" "loss" "sig1 (trig.)" "sig3 (pend.)"
    "max sig3 gap";
  List.iter
    (fun loss ->
      match
        Des.Simulator.run ~frame_loss_percent:loss ~generators
          ~horizon:500_000 spec
      with
      | Error e -> Printf.printf "%-8d %s\n" loss e
      | Ok trace ->
        let deliveries signal =
          List.length
            (Des.Trace.arrivals trace (Des.Port.signal ~frame:"F1" ~signal))
        in
        let max_gap =
          let times =
            Des.Trace.arrivals trace (Des.Port.signal ~frame:"F1" ~signal:"sig3")
          in
          let rec scan acc = function
            | a :: (b :: _ as rest) -> scan (Stdlib.max acc (b - a)) rest
            | [ _ ] | [] -> acc
          in
          scan 0 times
        in
        Printf.printf "%-7d%% %14d %14d %16d\n" loss (deliveries "sig1")
          (deliveries "sig3") max_gap)
    [ 0; 10; 30; 50 ];
  Printf.printf
    "(triggering events die with their frame; pending values are re-sent\n\
    \ with the next transmission — the transfer-property semantics of the\n\
    \ COM layer under faults)\n"

(* ------------------------------------------------------------------ *)
(* V1: simulation cross-check                                          *)

let validate () =
  banner "V1: simulation vs analysis (paper system)";
  let spec = Paper.spec () in
  let hem = analyse_paper Engine.Hierarchical in
  let generators = Paper.generators () in
  match Des.Simulator.run ~generators ~horizon:1_000_000 spec with
  | Error e -> Printf.printf "simulation failed: %s\n" e
  | Ok trace ->
    Printf.printf "%-6s %12s %12s %6s\n" "elem" "observed R+" "bound R+" "ok";
    List.iter
      (fun name ->
        match Des.Trace.worst_response trace name, Engine.response hem name with
        | Some obs, Some bound ->
          Printf.printf "%-6s %12d %12d %6s\n" name obs (Interval.hi bound)
            (if obs <= Interval.hi bound then "yes" else "NO")
        | _ -> Printf.printf "%-6s (no data)\n" name)
      ("F1" :: "F2" :: Paper.cpu_tasks)

(* ------------------------------------------------------------------ *)
(* explore: domain-pool scaling on a design-space sweep (BENCH_3.json)  *)

(* A sweep report rendered as CSV: byte equality across job counts is
   the determinism check of the pool benches. *)
let render_csv report =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Explore.Render.csv fmt report;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* A >=200-variant sweep: the paper system over S3 period x T3 CET
   scale, plus synthetic fan-in systems over signal count x CET.  The
   paper-system CET scaling rounds up (ceil(40 * p / 100)), so adjacent
   percents collide on the same spec and the content-addressed cache
   gets genuine hits. *)
let explore_items () =
  let grid =
    Explore.Space.grid
      [
        Explore.Space.int_axis "s3"
          (fun period -> Explore.Space.Source_period { source = "S3"; period })
          [ 600; 700; 800; 900; 1000; 1100; 1200; 1300; 1400 ];
        Explore.Space.int_axis "cet"
          (fun percent -> Explore.Space.Cet_scale { task = "T3"; percent })
          (List.init 25 (fun i -> 90 + i));
      ]
  in
  let paper =
    Explore.Driver.items_of_variants ~base:(fun () -> Paper.spec ()) grid
  in
  (* items need not come from Space edits: any label + domain-local spec
     builder over pure data works *)
  let fan_in =
    List.concat_map
      (fun signals ->
        List.map
          (fun cet ->
            {
              Explore.Driver.label =
                Printf.sprintf "fan_in s=%d cet=%d" signals cet;
              build =
                (fun () -> Scenarios.Synthetic.fan_in ~signals ~cet ());
            })
          (List.init 10 (fun i -> 10 + (2 * i))))
      [ 2; 3; 4; 5; 6 ]
  in
  paper @ fan_in

let explore_bench () =
  banner "explore: domain-pool scaling, 275-variant sweep (BENCH_3.json)";
  let cores = Domain.recommended_domain_count () in
  let job_counts = [ 1; 2; 4 ] in
  Printf.printf "%-6s %10s %9s %8s %7s %6s\n" "jobs" "wall ms" "speedup"
    "variants" "unique" "hits";
  let runs =
    List.map
      (fun jobs ->
        let report = Explore.Driver.run ~jobs (explore_items ()) in
        jobs, report, render_csv report)
      job_counts
  in
  let _, first_report, first_csv = List.hd runs in
  let identical =
    List.for_all (fun (_, _, csv) -> String.equal csv first_csv) runs
  in
  if not identical then begin
    Printf.eprintf "explore: results differ across job counts!\n";
    exit 1
  end;
  let wall_1 =
    let _, (r : Explore.Driver.report), _ = List.hd runs in
    r.wall_ms
  in
  List.iter
    (fun (jobs, (r : Explore.Driver.report), _) ->
      Printf.printf "%-6d %10.1f %8.2fx %8d %7d %6d\n" jobs r.wall_ms
        (wall_1 /. r.wall_ms) (List.length r.rows) r.cache.entries
        r.cache.hits)
    runs;
  Printf.printf
    "(identical rows at every job count; %d core%s available; cache hits\n\
    \ come from CET rounding collisions across adjacent percents)\n"
    cores (if cores = 1 then "" else "s");
  let oc = open_out "BENCH_3.json" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"design-space exploration pool scaling\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"variants\": %d,\n  \"unique\": %d,\n  \"cache_hits\": %d,\n\
       \  \"cores\": %d,\n  \"rows_identical\": true,\n  \"runs\": [\n"
       (List.length first_report.rows) first_report.cache.entries
       first_report.cache.hits cores);
  List.iteri
    (fun i (jobs, (r : Explore.Driver.report), _) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"jobs\": %d, \"effective_jobs\": %d, \"wall_ms\": %.1f, \
            \"speedup_vs_jobs1\": %.2f}%s\n"
           jobs
           (Explore.Pool.effective_jobs jobs)
           r.wall_ms (wall_1 /. r.wall_ms)
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  let metrics =
    metrics_json ~warm:(fun () ->
        ignore (Explore.Driver.run ~jobs:(Stdlib.min 2 cores) (explore_items ())))
  in
  Buffer.add_string buf (Printf.sprintf "  ],\n  \"metrics\": %s\n}\n" metrics);
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_3.json\n"

(* ------------------------------------------------------------------ *)
(* scale: pool scaling on a many-ECU sweep (BENCH_6.json)             *)

let scale () =
  banner "scale: pool scaling, synthetic network sweep (BENCH_6.json)";
  let items () =
    List.concat_map
      (fun ecus ->
        List.map
          (fun seed ->
            {
              Explore.Driver.label = Printf.sprintf "net e=%d s=%d" ecus seed;
              build = (fun () -> Scenarios.Synthetic.network ~seed ~ecus ());
            })
          (List.init 12 (fun i -> i + 1)))
      [ 4; 6; 8 ]
  in
  let cores = Domain.recommended_domain_count () in
  let job_counts = [ 1; 2; 4 ] in
  (* one untimed pass to warm page cache / allocator before measuring *)
  ignore (Explore.Driver.run ~jobs:1 (items ()));
  (* a single sweep is ~tens of ms, well inside container timing jitter;
     interleave 5 rounds across the job counts (rather than 5 back-to-back
     runs per count) so slow drift hits every count equally, and keep the
     best round for each *)
  let best = Hashtbl.create 8 in
  for _ = 1 to 5 do
    List.iter
      (fun jobs ->
        let report = Explore.Driver.run ~jobs (items ()) in
        match Hashtbl.find_opt best jobs with
        | Some (b : Explore.Driver.report) when b.wall_ms <= report.wall_ms ->
          ()
        | _ -> Hashtbl.replace best jobs report)
      job_counts
  done;
  let runs =
    List.map
      (fun jobs ->
        let report = Hashtbl.find best jobs in
        jobs, report, render_csv report)
      job_counts
  in
  let _, first_report, first_csv = List.hd runs in
  if not (List.for_all (fun (_, _, csv) -> String.equal csv first_csv) runs)
  then begin
    Printf.eprintf "scale: results differ across job counts!\n";
    exit 1
  end;
  let wall_1 =
    let _, (r : Explore.Driver.report), _ = List.hd runs in
    r.wall_ms
  in
  Printf.printf "%-6s %8s %10s %9s\n" "jobs" "domains" "wall ms" "speedup";
  List.iter
    (fun (jobs, (r : Explore.Driver.report), _) ->
      Printf.printf "%-6d %8d %10.1f %8.2fx\n" jobs
        (Explore.Pool.effective_jobs jobs)
        r.wall_ms (wall_1 /. r.wall_ms))
    runs;
  Printf.printf
    "(byte-identical rows at every jobs count; %d core%s, so requests\n\
    \ beyond that run on %d domain%s — oversubscription only costs)\n"
    cores
    (if cores = 1 then "" else "s")
    cores
    (if cores = 1 then "" else "s");
  (* --- BENCH_6.json ----------------------------------------------- *)
  let oc = open_out "BENCH_6.json" in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"explore pool scaling\",\n  \"unit\": \"ms, best of 5 \
     rounds\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"pool\": {\"cores\": %d, \"sweep_items\": %d, \
        \"rows_identical\": true, \"runs\": [\n"
       cores
       (List.length first_report.Explore.Driver.rows));
  List.iteri
    (fun i (jobs, (r : Explore.Driver.report), _) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"jobs\": %d, \"effective_domains\": %d, \"wall_ms\": %.1f, \
            \"speedup_vs_jobs1\": %.2f}%s\n"
           jobs
           (Explore.Pool.effective_jobs jobs)
           r.wall_ms (wall_1 /. r.wall_ms)
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  let metrics =
    metrics_json ~warm:(fun () ->
        ignore (Engine.analyse ~mode:Engine.Hierarchical (Paper.spec ())))
  in
  Buffer.add_string buf
    (Printf.sprintf "  ]},\n  \"metrics\": %s\n}\n" metrics);
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_6.json\n"

(* ------------------------------------------------------------------ *)
(* serve: warm-session daemon vs cold per-request analysis (BENCH_serve) *)

module Json = Serve.Protocol.Json
module Client = Serve.Client

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(Stdlib.min (n - 1) (int_of_float (float_of_int n *. p)))

let serve_connect path =
  let rec go n =
    match Client.connect (`Unix path) with
    | Ok c -> c
    | Error e ->
      if n = 0 then begin
        Printf.eprintf "serve bench: daemon did not come up: %s\n" e;
        exit 1
      end;
      Thread.delay 0.05;
      go (n - 1)
  in
  go 100

let reply_ok what = function
  | Error e ->
    Printf.eprintf "serve bench: %s: %s\n" what e;
    exit 1
  | Ok (r : Serve.Protocol.reply) ->
    if Client.exit_code r <> 0 then begin
      Printf.eprintf "serve bench: %s: status %d\n" what (Client.exit_code r);
      exit 1
    end;
    r

let must_session what r =
  match Client.session_id r with
  | Some id -> id
  | None ->
    Printf.eprintf "serve bench: %s: reply has no session id\n" what;
    exit 1

(* render outcomes exactly as the daemon does, for byte-comparison *)
let outcome_json (o : Engine.element_outcome) =
  match o.Engine.outcome with
  | Scheduling.Busy_window.Bounded iv ->
    Json.Obj
      [ "element", Json.Str o.Engine.element;
        "resource", Json.Str o.Engine.resource;
        "outcome", Json.Str "bounded";
        "lo", Json.Int (Interval.lo iv);
        "hi", Json.Int (Interval.hi iv) ]
  | Scheduling.Busy_window.Unbounded reason ->
    Json.Obj
      [ "element", Json.Str o.Engine.element;
        "resource", Json.Str o.Engine.resource;
        "outcome", Json.Str "unbounded";
        "reason", Json.Str reason ]

let outcomes_str outcomes =
  Json.to_string (Json.Arr (List.map outcome_json outcomes))

let body_outcomes what (r : Serve.Protocol.reply) =
  match Json.member "outcomes" r.Serve.Protocol.body with
  | Some j -> Json.to_string j
  | None ->
    Printf.eprintf "serve bench: %s: reply has no outcomes\n" what;
    exit 1

let toggle_edit i =
  [ Explore.Space.Task_priority
      { task = "t3"; priority = (if i mod 2 = 0 then 4 else 3) } ]

let serve_bench () =
  banner "serve: warm incremental sessions vs cold per-request analysis";
  let spec_text = read_file "examples/paper.spec" in
  let base_spec =
    match Cpa_system.Spec_file.parse spec_text with
    | Ok d -> Cpa_system.Spec_file.to_spec d
    | Error e ->
      Printf.eprintf "serve bench: examples/paper.spec: %s\n" e;
      exit 1
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hem-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let cfg = Serve.Server.config ~unix_path:path ~jobs:4 () in
  let server = Thread.create Serve.Server.run cfg in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect (`Unix path) with
      | Ok c ->
        ignore (Client.shutdown c);
        Client.close c
      | Error _ -> ());
      Thread.join server;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let c = serve_connect path in
  (* --- cold baseline: a fresh session (upload + from-scratch
     analysis) per request, closed immediately — the pattern the warm
     daemon replaces *)
  let cold_n = 20 in
  let cold_lat =
    Array.init cold_n (fun _ ->
      let t0 = Unix.gettimeofday () in
      let r = reply_ok "cold load" (Client.load c ~spec:spec_text) in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      let s = must_session "cold load" r in
      ignore (reply_ok "cold close" (Client.close_session c ~session:s));
      dt)
  in
  (* --- warm session: an idempotent edit cycle (T3's priority toggled
     3 <-> 4) against one resident session; every edit re-analyses only
     the CPU, the bus streams are reused *)
  let warm_m = 50 in
  let load = reply_ok "warm load" (Client.load c ~spec:spec_text) in
  let session = must_session "warm load" load in
  let reused = ref 0 in
  let byte_identical = ref true in
  let mirror = ref base_spec in
  let warm_lat =
    Array.init warm_m (fun i ->
      let edits = toggle_edit i in
      let t0 = Unix.gettimeofday () in
      let r = reply_ok "warm edit" (Client.edit c ~session edits) in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      (match Json.member "stats" r.Serve.Protocol.body with
      | Some stats -> begin
        match
          Option.bind (Json.member "resources-reused" stats) Json.to_int
        with
        | Some n -> reused := !reused + n
        | None -> ()
      end
      | None -> ());
      mirror := Explore.Space.apply_all !mirror edits;
      dt)
  in
  (* warm-delta vs cold from-scratch: the session's full outcome set
     after the edit cycle must be byte-identical to an offline engine
     run on the same final spec *)
  let t0 = Unix.gettimeofday () in
  let offline = ok (Engine.analyse !mirror) in
  let engine_cold_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let final = reply_ok "warm analyse" (Client.analyse c ~session) in
  if
    not
      (String.equal
         (outcomes_str offline.Engine.outcomes)
         (body_outcomes "warm analyse" final))
  then begin
    Printf.eprintf "serve bench: warm outcomes differ from cold engine!\n";
    byte_identical := false
  end;
  ignore (reply_ok "warm close" (Client.close_session c ~session));
  Client.close c;
  (* --- per-request service cost, transport excluded. On a system
     this small the socket roundtrip (~0.2 ms) floors the
     client-observed latency of cold and warm requests alike, so the
     headline speedup compares what each request costs the server:
     cold = parse + context build + from-scratch analysis + full
     outcome render (exactly handle_load's work per request); warm =
     impact closure + incremental warm_update + delta render (exactly
     handle_edit's work). Client-observed roundtrips are still
     reported alongside. *)
  let svc_cold =
    Array.init cold_n (fun _ ->
      let t0 = Unix.gettimeofday () in
      let d =
        match Cpa_system.Spec_file.parse spec_text with
        | Ok d -> d
        | Error _ -> exit 1
      in
      let spec = Cpa_system.Spec_file.to_spec d in
      (match Engine.warm spec with
      | Ok (_, r) -> ignore (outcomes_str r.Engine.outcomes)
      | Error _ ->
        Printf.eprintf "serve bench: cold service run failed\n";
        exit 1);
      (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let svc_warm =
    match Engine.warm base_spec with
    | Error _ ->
      Printf.eprintf "serve bench: warm service init failed\n";
      exit 1
    | Ok (w, r0) ->
      let spec = ref base_spec and last = ref r0.Engine.outcomes in
      Array.init warm_m (fun i ->
        let edits = toggle_edit i in
        let t0 = Unix.gettimeofday () in
        let new_spec, sources, elements =
          List.fold_left
            (fun (sp, srcs, els) e ->
              let s', e' = Explore.Space.touched sp e in
              (Explore.Space.apply sp e, s' @ srcs, e' @ els))
            (!spec, [], []) edits
        in
        let stale =
          List.sort_uniq String.compare
            (Engine.affected !spec ~sources ~elements
            @ Engine.affected new_spec ~sources ~elements)
        in
        (match Engine.warm_update w ~spec:new_spec ~stale with
        | Ok r ->
          let changed =
            Engine.delta_outcomes ~before:!last ~after:r.Engine.outcomes
          in
          ignore (outcomes_str changed);
          spec := new_spec;
          last := r.Engine.outcomes
        | Error _ ->
          Printf.eprintf "serve bench: warm service update failed\n";
          exit 1);
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let sorted a =
    let s = Array.copy a in
    Array.sort compare s;
    s
  in
  let cold_s = sorted cold_lat and warm_s = sorted warm_lat in
  let svc_cold_s = sorted svc_cold and svc_warm_s = sorted svc_warm in
  let speedup = mean svc_cold /. mean svc_warm in
  let rtt_speedup = mean cold_lat /. mean warm_lat in
  let row label a s =
    Printf.printf "%-34s %10.3f %10.3f %10.3f\n" label (mean a)
      (percentile s 0.5) (percentile s 0.99)
  in
  Printf.printf "%-34s %10s %10s %10s\n" "" "mean ms" "p50 ms" "p99 ms";
  row
    (Printf.sprintf "cold request service (n=%d)" cold_n)
    svc_cold svc_cold_s;
  row
    (Printf.sprintf "warm edit service (m=%d)" warm_m)
    svc_warm svc_warm_s;
  row (Printf.sprintf "cold load roundtrip (n=%d)" cold_n) cold_lat cold_s;
  row (Printf.sprintf "warm edit roundtrip (m=%d)" warm_m) warm_lat warm_s;
  Printf.printf
    "warm vs cold speedup: %.1fx service, %.1fx client-observed (%d \
     stream analyses reused; offline cold engine run: %.3f ms)\n"
    speedup rtt_speedup !reused engine_cold_ms;
  if !reused = 0 then begin
    Printf.eprintf "serve bench: warm edits reused nothing!\n";
    exit 1
  end;
  if speedup < 5.0 then begin
    Printf.eprintf "serve bench: warm speedup %.2fx below the 5x floor\n"
      speedup;
    exit 1
  end;
  (* --- client storm: concurrent sessions, each its own system (a
     distinct S3 period), hammering interleaved warm edits *)
  let clients = 4 in
  let storm_m = 25 in
  let storm_lat = Array.make (clients * storm_m) 0.0 in
  let storm_identical = Array.make clients false in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun k ->
      Thread.create
        (fun k ->
          let c = serve_connect path in
          let r = reply_ok "storm load" (Client.load c ~spec:spec_text) in
          let session = must_session "storm load" r in
          let personalise =
            [ Explore.Space.Source_period
                { source = "s3"; period = 1000 + (100 * (k + 1)) } ]
          in
          ignore (reply_ok "storm edit" (Client.edit c ~session personalise));
          let mirror = ref (Explore.Space.apply_all base_spec personalise) in
          for i = 0 to storm_m - 1 do
            let edits = toggle_edit i in
            let t0 = Unix.gettimeofday () in
            ignore (reply_ok "storm edit" (Client.edit c ~session edits));
            storm_lat.((k * storm_m) + i) <-
              (Unix.gettimeofday () -. t0) *. 1e3;
            mirror := Explore.Space.apply_all !mirror edits
          done;
          let final = reply_ok "storm analyse" (Client.analyse c ~session) in
          let offline = ok (Engine.analyse !mirror) in
          storm_identical.(k) <-
            String.equal
              (outcomes_str offline.Engine.outcomes)
              (body_outcomes "storm analyse" final);
          ignore (reply_ok "storm close" (Client.close_session c ~session));
          Client.close c)
        k)
  in
  List.iter Thread.join threads;
  let storm_wall = (Unix.gettimeofday () -. t0) *. 1e3 in
  let storm_sorted = sorted storm_lat in
  let edits_per_sec =
    float_of_int (clients * storm_m) /. (storm_wall /. 1e3)
  in
  let storm_ok = Array.for_all (fun b -> b) storm_identical in
  Printf.printf
    "storm: %d clients x %d edits in %.1f ms — %.0f edits/s, p50 %.3f ms, \
     p99 %.3f ms%s\n"
    clients storm_m storm_wall edits_per_sec
    (percentile storm_sorted 0.5)
    (percentile storm_sorted 0.99)
    (if storm_ok then "" else " (OUTCOME MISMATCH)");
  if not storm_ok then begin
    Printf.eprintf "serve bench: storm outcomes differ from cold engine!\n";
    exit 1
  end;
  (* --- BENCH_serve.json ------------------------------------------- *)
  let oc = open_out "BENCH_serve.json" in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"analysis-as-a-service warm sessions\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cold\": {\"requests\": %d, \"service_mean_ms\": %.3f, \
        \"service_p50_ms\": %.3f, \"service_p99_ms\": %.3f, \
        \"rtt_mean_ms\": %.3f, \"rtt_p50_ms\": %.3f, \"rtt_p99_ms\": \
        %.3f},\n"
       cold_n (mean svc_cold)
       (percentile svc_cold_s 0.5)
       (percentile svc_cold_s 0.99)
       (mean cold_lat) (percentile cold_s 0.5) (percentile cold_s 0.99));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"warm\": {\"edits\": %d, \"service_mean_ms\": %.3f, \
        \"service_p50_ms\": %.3f, \"service_p99_ms\": %.3f, \
        \"rtt_mean_ms\": %.3f, \"rtt_p50_ms\": %.3f, \"rtt_p99_ms\": %.3f, \
        \"streams_reused\": %d},\n"
       warm_m (mean svc_warm)
       (percentile svc_warm_s 0.5)
       (percentile svc_warm_s 0.99)
       (mean warm_lat) (percentile warm_s 0.5) (percentile warm_s 0.99)
       !reused);
  Buffer.add_string buf
    (Printf.sprintf "  \"warm_vs_cold_speedup\": %.2f,\n" speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"rtt_warm_vs_cold_speedup\": %.2f,\n" rtt_speedup);
  Buffer.add_string buf
    "  \"speedup_basis\": \"per-request service cost (parse + full \
     analysis + render vs incremental update + delta render); rtt_* \
     fields are client-observed over the Unix socket\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_cold_ms\": %.3f,\n" engine_cold_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"byte_identical\": %b,\n" (!byte_identical && storm_ok));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"storm\": {\"clients\": %d, \"edits_per_client\": %d, \
        \"wall_ms\": %.1f, \"edits_per_sec\": %.0f, \"p50_ms\": %.3f, \
        \"p99_ms\": %.3f},\n"
       clients storm_m storm_wall edits_per_sec
       (percentile storm_sorted 0.5)
       (percentile storm_sorted 0.99));
  let metrics =
    metrics_json ~warm:(fun () ->
        let c = serve_connect path in
        let r = reply_ok "metrics load" (Client.load c ~spec:spec_text) in
        let session = must_session "metrics load" r in
        for i = 0 to 9 do
          ignore (reply_ok "metrics edit" (Client.edit c ~session (toggle_edit i)))
        done;
        ignore (reply_ok "metrics close" (Client.close_session c ~session));
        Client.close c)
  in
  Buffer.add_string buf (Printf.sprintf "  \"metrics\": %s\n}\n" metrics);
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n"

(* ------------------------------------------------------------------ *)
(* propagation: per-mode output-model tightness table (BENCH_9.json)   *)

module Prop = Event_model.Propagation
module Oracle = Verify.Oracle

(* The systems of the propagation and backend tables. *)
let table_systems () =
  List.map
    (fun name -> name, Scenarios.Registry.find name ())
    [ "paper"; "gateway"; "avionics"; "fan_in_8"; "chain_12"; "network_8" ]

(* Worst-case response bound per element, [None] when unbounded. *)
let hi_map (r : Engine.result) =
  List.map
    (fun (o : Engine.element_outcome) ->
      ( o.Engine.element,
        match o.Engine.outcome with
        | Scheduling.Busy_window.Bounded i -> Some (Interval.hi i)
        | Scheduling.Busy_window.Unbounded _ -> None ))
    r.Engine.outcomes

let sum_hi hs =
  List.fold_left
    (fun acc (_, h) -> match h with Some h -> acc + h | None -> acc)
    0 hs

let propagation_bench () =
  banner "propagation: per-mode output-model tightness (BENCH_9.json)";
  let mode_names = List.map Prop.mode_name Prop.all_modes in
  Printf.printf "%-12s %10s" "system" "flat";
  List.iter (fun m -> Printf.printf " %13s" m) mode_names;
  Printf.printf "   (sum of bounded R+ over elements)\n";
  let rows =
    List.map
      (fun (name, spec) ->
        let flat =
          hi_map
            (ok (Engine.analyse ~mode:Engine.Flat_sem ~incremental:false spec))
        in
        let per_mode =
          List.map
            (fun m ->
              ( m,
                hi_map
                  (ok
                     (Engine.analyse ~mode:Engine.Hierarchical
                        ~incremental:false (Oracle.forced_mode m spec))) ))
            Prop.all_modes
        in
        let theta = List.assoc Prop.Theta_tau per_mode in
        let strict =
          List.exists
            (fun (element, o) ->
              match o, List.assoc_opt element theta with
              | Some o, Some (Some t) -> o < t
              | _ -> false)
            (List.assoc Prop.Optimal per_mode)
        in
        Printf.printf "%-12s %10d" name (sum_hi flat);
        List.iter (fun (_, hs) -> Printf.printf " %13d" (sum_hi hs)) per_mode;
        Printf.printf "%s\n" (if strict then "   < theta_tau" else "");
        name, flat, per_mode, strict)
      (table_systems ())
  in
  let strict_wins =
    List.filter_map (fun (n, _, _, s) -> if s then Some n else None) rows
  in
  Printf.printf "(optimal strictly tighter than theta_tau on: %s)\n"
    (String.concat ", " strict_wins);
  let oc = open_out "BENCH_9.json" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"output-model propagation tightness\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"modes\": [%s],\n"
       (String.concat ", "
          (List.map (fun m -> Printf.sprintf "%S" m) mode_names)));
  Buffer.add_string buf "  \"systems\": [\n";
  let render_hi = function Some h -> string_of_int h | None -> "null" in
  List.iteri
    (fun i (name, flat, per_mode, strict) ->
      let elements = List.map fst flat in
      Buffer.add_string buf (Printf.sprintf "    {\"name\": %S,\n" name);
      Buffer.add_string buf "     \"elements\": [\n";
      List.iteri
        (fun j element ->
          Buffer.add_string buf
            (Printf.sprintf "       {\"element\": %S, \"flat\": %s%s}%s\n"
               element
               (render_hi (Option.join (List.assoc_opt element flat)))
               (String.concat ""
                  (List.map
                     (fun (m, hs) ->
                       Printf.sprintf ", %S: %s" (Prop.mode_name m)
                         (render_hi (Option.join (List.assoc_opt element hs))))
                     per_mode))
               (if j = List.length elements - 1 then "" else ",")))
        elements;
      Buffer.add_string buf "     ],\n";
      Buffer.add_string buf
        (Printf.sprintf "     \"optimal_strictly_tighter_than_theta\": %b}%s\n"
           strict
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"strict_win_systems\": [%s],\n"
       (String.concat ", "
          (List.map (fun n -> Printf.sprintf "%S" n) strict_wins)));
  let metrics =
    metrics_json ~warm:(fun () ->
        ignore
          (Engine.analyse ~mode:Engine.Hierarchical
             (Oracle.forced_mode Prop.Optimal (Paper.spec ()))))
  in
  Buffer.add_string buf (Printf.sprintf "  \"metrics\": %s\n}\n" metrics);
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_9.json\n"

(* ------------------------------------------------------------------ *)
(* hybrid: rtc vs cpa vs mixed backend tightness/runtime (BENCH_10)    *)

(* Wall-clock of the best of [runs] executions (discarding one warmup),
   in milliseconds.  Reported, never gated: a timing ratio on a shared
   host cannot tell a regression from noise. *)
let time_ms ?(runs = 5) f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Stdlib.min !best (Unix.gettimeofday () -. t0)
  done;
  !best *. 1000.0

let hybrid_bench () =
  banner "hybrid: rtc vs cpa vs mixed backends (BENCH_10.json)";
  let backends =
    [
      "cpa", Oracle.forced_backend Spec.Cpa;
      "rtc", Oracle.forced_backend Spec.Rtc;
      "mixed", Oracle.mixed_backend;
    ]
  in
  let bounded hs = List.length (List.filter (fun (_, h) -> h <> None) hs) in
  Printf.printf "%-12s %8s %12s %10s %8s\n" "system" "backend" "sum R+"
    "bounded" "ms";
  let rows =
    List.map
      (fun (name, spec) ->
        let per_backend =
          List.map
            (fun (bname, force) ->
              let spec = force spec in
              let analyse () =
                Engine.analyse ~mode:Engine.Hierarchical ~incremental:false spec
              in
              let ms = time_ms analyse in
              let r = ok (analyse ()) in
              let hs = hi_map r in
              Printf.printf "%-12s %8s %12d %7d/%-2d %8.3f\n" name bname
                (sum_hi hs) (bounded hs) (List.length hs) ms;
              bname, (hs, ms, Engine.status_name r.Engine.status))
            backends
        in
        name, per_backend)
      (table_systems ())
  in
  (* Boundedness drift: an element bounded under pure CPA may go
     unbounded under the conservative curve backend (long chains
     accumulate conversion jitter until the in-horizon arrival estimate
     exceeds the certified service rate); the count is recorded so a
     regression in the conversion layer shows up as a jump here. *)
  let regressions =
    List.fold_left
      (fun acc (name, per_backend) ->
        let hs b =
          let hs, _, _ = List.assoc b per_backend in
          hs
        in
        List.fold_left
          (fun acc b ->
            List.fold_left
              (fun acc (element, h) ->
                match h, List.assoc_opt element (hs b) with
                | Some _, Some None ->
                  Printf.printf "%s/%s: bounded under cpa, unbounded under %s\n"
                    name element b;
                  acc + 1
                | _ -> acc)
              acc (hs "cpa"))
          acc [ "rtc"; "mixed" ])
      0 rows
  in
  let oc = open_out "BENCH_10.json" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"hybrid rtc/cpa backend tightness and runtime\",\n";
  Buffer.add_string buf "  \"systems\": [\n";
  List.iteri
    (fun i (name, per_backend) ->
      Buffer.add_string buf (Printf.sprintf "    {\"name\": %S,\n" name);
      Buffer.add_string buf "     \"backends\": [\n";
      List.iteri
        (fun j (bname, (hs, ms, status)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "       {\"backend\": %S, \"sum_hi\": %d, \"bounded\": %d, \
                \"elements\": %d, \"ms\": %.3f, \"status\": %S}%s\n"
               bname (sum_hi hs) (bounded hs) (List.length hs) ms status
               (if j = List.length per_backend - 1 then "" else ",")))
        per_backend;
      Buffer.add_string buf
        (Printf.sprintf "     ]}%s\n"
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"boundedness_regressions\": %d,\n" regressions);
  let metrics =
    metrics_json ~warm:(fun () ->
        ignore
          (Engine.analyse ~mode:Engine.Hierarchical
             (Oracle.forced_backend Spec.Rtc (Paper.spec ()))))
  in
  Buffer.add_string buf (Printf.sprintf "  \"metrics\": %s\n}\n" metrics);
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_10.json\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    "tables", tables;
    "table3", table3;
    "figure4", figure4;
    "ablation-pending", ablation_pending;
    "ablation-k", ablation_k;
    "scaling", scaling;
    "convergence", convergence;
    "baseline-models", baseline_models;
    "buffers", buffers;
    "cross-framework", cross_framework;
    "robustness", robustness;
    "validate", validate;
    "explore", explore_bench;
    "scale", scale;
    "serve", serve_bench;
    "propagation", propagation_bench;
    "hybrid", hybrid_bench;
  ]

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
    (* everything except the benches that write BENCH_*.json files *)
    List.iter
      (fun (name, run) ->
        if
          not
            (List.mem name
               [ "explore"; "scale"; "serve"; "propagation"; "hybrid" ])
        then run ())
      experiments
  | _ :: names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some run -> run ()
        | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
      names
