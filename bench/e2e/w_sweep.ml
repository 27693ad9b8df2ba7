(* The sweep workload: closed-loop, back-to-back [Explore.Driver.run
   ~jobs:1] runs over a seeded variant family, each rendered to the
   exploration CSV.  It is the only workload that goes through the
   domain pool, the content-addressed cache, [Spec.digest] and
   [Summary]; no spec text is parsed. *)

module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module Interval = Timebase.Interval
module Driver = Explore.Driver

(* One worker, in the calling domain.  With two, each sweep spawns and
   joins a domain and both stop for every minor collection, so a stall
   of either vCPU of a shared host stalls the sweep: the run-to-run
   spread of the sweep time was about twice that of one worker. *)
let jobs = 1

let set_source (d : Spec_file.t) name desc =
  {
    d with
    Spec_file.sources =
      List.map
        (fun (s : Spec_file.source) ->
          if s.source_name = name then { s with desc } else s)
        d.sources;
  }

let map_task (d : Spec_file.t) name f =
  {
    d with
    Spec_file.tasks =
      List.map (fun (k : Spec.task) -> if k.task_name = name then f k else k) d.tasks;
  }

(* The rounding of [Explore.Space.Cet_scale]: adjacent percents land on
   the same execution time, so their variants collide in the cache. *)
let scale_cet percent (k : Spec.task) =
  let scale v = max 1 (((v * percent) + 99) / 100) in
  { k with
    cet = Interval.make ~lo:(scale (Interval.lo k.cet)) ~hi:(scale (Interval.hi k.cet)) }

(* S3 period x T3 execution-time scale over paper.spec (13 x 20), plus
   period / priority edits over four generated 16-ECU networks (10
   each); about half the variants repeat an earlier one through CET
   rounding.  The network variants cost most of a sweep, and one
   network's cost depends on its seed, so four of them keep the cost of
   a sweep close across seeds. *)
let variants env =
  let rng = Corpus.rng ~seed:env.Harness.seed "sweep" in
  let paper = snd (Corpus.example ~root:env.root "examples/paper.spec") in
  let first_period = 500 + (10 * Random.State.int rng 10) in
  let first_percent = 85 + Random.State.int rng 10 in
  let n_periods, n_percents, n_networks, n_network = 13, 20, 4, 40 in
  let paper_variants =
    List.concat_map
      (fun i ->
        let period = first_period + (75 * i) in
        List.init n_percents (fun j ->
          let percent = first_percent + j in
          ( Printf.sprintf "paper s3=%d t3.cet=%d%%" period percent,
            map_task (set_source paper "s3" (Spec_file.Periodic period)) "t3"
              (scale_cet percent) )))
      (List.init n_periods Fun.id)
  in
  let networks =
    Array.init n_networks (fun n ->
      Corpus.network ~seed:((env.seed * n_networks) + n) ~ecus:16)
  in
  let network_variants =
    List.init n_network (fun k ->
      let n = k / (n_network / n_networks) and e = k mod 16 in
      let period = 10 * (250 + Random.State.int rng 250) in
      let jitter = 10 * Random.State.int rng (period / 400) in
      ( Printf.sprintf "network_16.%d S%d.period=%d recv%d.prio=%d" n e period e (50 + k),
        map_task
          (set_source networks.(n) (Printf.sprintf "S%d" e)
             (Spec_file.Periodic_jitter { period; jitter; d_min = 0 }))
          (Printf.sprintf "recv%d" e)
          (fun t -> { t with priority = 50 + k }) ))
  in
  List.map
    (fun (label, d) -> Driver.item_of_description ~label d)
    (paper_variants @ network_variants)

let sweep items =
  let report = Spans.span "explore.driver.run" (fun () -> Driver.run ~jobs items) in
  let csv =
    Spans.span "explore.render.csv" (fun () ->
      Format.asprintf "%a" Explore.Render.csv report)
  in
  report, csv

(* Labels of the variants whose CSV rows differ between two renders. *)
let differing ~expected csv =
  let rows s =
    let t = Hashtbl.create 512 in
    List.iter
      (fun line ->
        match String.index_opt line ',' with
        | Some i ->
          let label = String.sub line 0 i in
          Hashtbl.replace t label
            (line :: Option.value (Hashtbl.find_opt t label) ~default:[])
        | None -> ())
      (String.split_on_char '\n' s);
    t
  in
  let a = rows expected and b = rows csv in
  Hashtbl.fold
    (fun label lines acc ->
      if Hashtbl.find_opt b label = Some lines then acc else label :: acc)
    a []

let golden_lines env =
  let _, csv = sweep (variants env) in
  [ Golden.line ~seed:env.Harness.seed ~workload:"sweep" ~key:"csv" [ Golden.md5 csv ] ]

let layer_metrics items (reports : Driver.report list) =
  let m = Timing.metric in
  let n = List.length reports in
  let per_run name unit f =
    m ~samples:n name unit (Timing.median (List.map f reports))
  in
  let busy_us (r : Driver.report) =
    List.fold_left (fun s (w : Explore.Pool.worker_stat) -> s +. w.busy_us) 0.0 r.workers
  in
  let digest_us = ref [] and summary_us = ref [] in
  let timed acc name f =
    let v, ms = Timing.time_ms (fun () -> Spans.span name f) in
    acc := (ms *. 1e3) :: !acc;
    v
  in
  let seen = Hashtbl.create 256 in
  let curve0 = Event_model.Curve.stats () in
  let busy0 = Scheduling.Busy_window.counters () in
  Spans.enable ();
  List.iter
    (fun (it : Driver.item) ->
      let spec = it.build () in
      let digest = timed digest_us "replay.spec.digest" (fun () -> Spec.digest spec) in
      if not (Hashtbl.mem seen digest) then begin
        Hashtbl.add seen digest ();
        ignore
          (timed summary_us "replay.explore.summary" (fun () ->
             Explore.Summary.evaluate ~digest spec))
      end)
    items;
  Spans.disable ();
  (* the replay analyses each distinct variant once, as one run does *)
  let curve = Event_model.Curve.stats_diff (Event_model.Curve.stats ()) curve0 in
  let busy = Scheduling.Busy_window.(counters_diff (counters ()) busy0) in
  let count name v = m name "count" (float v) in
  let median_us name xs = m ~samples:(List.length xs) name "us" (Timing.median xs) in
  [
    count "curve.periodic_evals" curve.periodic_evals;
    count "curve.closure_evals" curve.closure_evals;
    m "curve.memo_hit_ratio" "ratio"
      (float curve.memo_hits /. float (max 1 (curve.memo_hits + curve.closure_evals)));
    count "curve.search_steps" curve.search_steps;
    count "curve.batch_probe_count" curve.batch_probe_count;
    count "busy_window.windows" busy.busy_windows;
    count "busy_window.window_iterations" busy.window_iterations;
    count "busy_window.demand_probes" busy.demand_probes;
    per_run "explore.cache_hit_ratio" "ratio" (fun (r : Driver.report) ->
      float r.cache.hits /. float (max 1 r.cache.lookups));
    per_run "explore.pool.busy_share" "ratio" (fun (r : Driver.report) ->
      busy_us r /. (float r.jobs *. r.wall_ms *. 1e3));
    median_us "spec.digest_us" !digest_us;
    median_us "explore.summary_us" !summary_us;
  ]

let run env =
  let t = Harness.tally () in
  let items = variants env in
  let expected, setup_s =
    Harness.repeated_setup env ~dispose:ignore (fun () -> snd (sweep items))
  in
  if Golden.covers env.golden ~seed:env.seed ~workload:"sweep" then begin
    match Golden.find env.golden ~seed:env.seed ~workload:"sweep" ~key:"csv" with
    | Some [ digest ] when digest = Golden.md5 expected -> ()
    | _ -> Harness.broken t "sweep: CSV differs from golden"
  end;
  let traced_ms = ref [] and untraced_ms = ref [] and reports = ref [] in
  let op i =
    let traced = env.traced && i mod 2 = 0 in
    if traced then Spans.enable ();
    let (report, csv), ms = Timing.time_ms (fun () -> sweep items) in
    Spans.disable ();
    if traced then traced_ms := ms :: !traced_ms else untraced_ms := ms :: !untraced_ms;
    if env.traced then reports := report :: !reports;
    Harness.attempt t (List.length items);
    (match report.interrupted with
     | Some e -> Harness.fail t "sweep interrupted: %s" (Guard.Error.to_string e)
     | None -> ());
    List.iter
      (fun (r : Driver.row) ->
        match r.summary with
        | Error e -> Harness.fail t "%s: %s" r.label e
        | Ok _ -> ())
      report.rows;
    List.iter
      (fun label -> Harness.fail t "%s: CSV row differs from the first run" label)
      (differing ~expected csv);
    ms
  in
  let latencies, cpu_ms_per_op = Harness.closed_loop env op in
  let layers =
    if not env.traced then []
    else
      layer_metrics items !reports
      @ Harness.op_layers ~untraced:!untraced_ms ~traced:!traced_ms ~cpu_ms_per_op
  in
  let e2e =
    Harness.end_to_end env ~setup_s ~latencies ~rss_mb:(Harness.self_rss_mb ())
  in
  {
    Harness.tally = t;
    end_to_end = e2e;
    layers;
    named =
      Timing.p50_p90 "sweep.run_ms" "ms" latencies
      @ [ Timing.metric ~samples:(List.length latencies) "sweep.variants_per_s" "1/s"
          (float (List.length items) /. (Timing.median latencies /. 1e3));
        Harness.fail_ratio "sweep.fail_ratio" t ];
  }
