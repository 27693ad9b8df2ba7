(* The per-layer metrics of a traced run, named after the library
   modules that do the work.  [heavy] is the workload on which the layer
   does most of its work: the smoke run requires a non-zero value there.
   A metric that is 0 when the host is slow (a rate that met a latency
   limit, a ratio of rejections) has no [heavy], so the smoke run cannot
   fail on timing.  Every traced run reports every metric; a layer a
   workload does not exercise reads 0. *)

type entry = {
  name : string;
  unit : string;
  heavy : string option;
}

let e ?heavy name unit = { name; unit; heavy }
let cold = "analyse_cold"
let rtc = "analyse_rtc"
let sweep = "sweep"
let serve = "serve_mixed"

let catalogue =
  [
    e "latency_ms_p90" "ms";
    e "cpu_ms_per_op" "ms";
    e "spec_file.parse_us" "us" ~heavy:cold;
    e "spec_file.parse_mb_per_s" "MB/s" ~heavy:cold;
    e "spec_file.to_spec_us" "us" ~heavy:cold;
    e "spec_file.parse_share" "ratio" ~heavy:cold;
    e "report.render_us" "us" ~heavy:cold;
    e "engine.analyse_us" "us" ~heavy:cold;
    e "engine.iterations" "count" ~heavy:cold;
    e "engine.resources_analysed" "count" ~heavy:cold;
    e "engine.reuse_ratio" "ratio" ~heavy:cold;
    e "engine.streams_invalidated" "count" ~heavy:cold;
    e "engine.warm_update_us" "us" ~heavy:serve;
    e "curve.periodic_evals" "count" ~heavy:cold;
    e "curve.closure_evals" "count" ~heavy:cold;
    e "curve.memo_hit_ratio" "ratio" ~heavy:cold;
    e "curve.search_steps" "count" ~heavy:cold;
    e "curve.batch_probe_count" "count" ~heavy:cold;
    e "event_model.eta_probe_ns" "ns" ~heavy:cold;
    e "busy_window.windows" "count" ~heavy:cold;
    e "busy_window.window_iterations" "count" ~heavy:cold;
    e "busy_window.demand_probes" "count" ~heavy:cold;
    e "scheduling.local_us.spp" "us" ~heavy:cold;
    e "scheduling.local_us.spnp" "us" ~heavy:cold;
    e "scheduling.local_us.round_robin" "us" ~heavy:cold;
    e "scheduling.local_us.tdma" "us" ~heavy:cold;
    e "scheduling.local_us.edf" "us" ~heavy:cold;
    e "hem.pack_us" "us" ~heavy:cold;
    e "hem.inner_update_us" "us" ~heavy:cold;
    e "hem.unpack_us" "us" ~heavy:cold;
    e "hem.frames" "count" ~heavy:cold;
    e "hybrid.local_us.spp" "us" ~heavy:rtc;
    e "hybrid.local_us.spnp" "us" ~heavy:rtc;
    e "hybrid.local_us.tdma" "us" ~heavy:rtc;
    e "hybrid.local_us.round_robin" "us" ~heavy:rtc;
    e "hybrid.of_stream_us" "us" ~heavy:rtc;
    e "hybrid.to_stream_us" "us" ~heavy:rtc;
    e "hybrid.rtc_share" "ratio" ~heavy:rtc;
    e "rtc.bounded_elements" "count" ~heavy:rtc;
    e "explore.cache_hit_ratio" "ratio" ~heavy:sweep;
    e "explore.pool.busy_share" "ratio" ~heavy:sweep;
    e "spec.digest_us" "us" ~heavy:sweep;
    e "explore.summary_us" "us" ~heavy:sweep;
    e "serve.service_us" "us" ~heavy:serve;
    e "serve.overhead_us" "us" ~heavy:serve;
    e "serve.protocol.encode_us" "us" ~heavy:serve;
    e "serve.protocol.decode_us" "us" ~heavy:serve;
    e "serve.reject_ratio" "ratio";
    e "serve.generator_late_ms_p99" "ms" ~heavy:serve;
    e "serve.load_ms_p50" "ms" ~heavy:serve;
    e "serve.resources_reused_per_edit" "count" ~heavy:serve;
    e "serve.r500.latency_ms_p50" "ms" ~heavy:serve;
    e "serve.r500.latency_ms_p90" "ms" ~heavy:serve;
    e "serve.r500.latency_ms_p99" "ms" ~heavy:serve;
    e "serve.max_rate_ops" "1/s";
    e "trace.overhead_pct" "%";
  ]

(* The full catalogue from the metrics one workload measured; names it
   did not measure read 0. *)
let complete (measured : Timing.metric list) =
  List.map
    (fun c ->
      match
        List.find_opt (fun (m : Timing.metric) -> String.equal m.name c.name)
          measured
      with
      | Some m -> { m with unit = c.unit }
      | None -> Timing.metric c.name c.unit 0.0)
    catalogue

(* Names a workload must have measured as non-zero. *)
let missing ~workload (metrics : Timing.metric list) =
  List.filter_map
    (fun c ->
      match c.heavy with
      | Some w when String.equal w workload ->
        if
          List.exists
            (fun (m : Timing.metric) ->
              String.equal m.name c.name && m.value <> 0.0
              && Float.is_finite m.value)
            metrics
        then None
        else Some c.name
      | _ -> None)
    catalogue

(* The per-layer metrics of the replays and engine counters of one
   workload operation. *)
let of_replay (acc : Replay.acc) =
  let g = Replay.get acc in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let analyses = g "engine.analyses" in
  let per_analysis k = ratio (g k) analyses in
  let m = Timing.metric in
  [
    m "engine.iterations" "count" (per_analysis "engine.iterations");
    m "engine.resources_analysed" "count" (per_analysis "engine.resources_analysed");
    m "engine.reuse_ratio" "ratio"
      (ratio (g "engine.resources_reused")
         (g "engine.resources_reused" +. g "engine.resources_analysed"));
    m "engine.streams_invalidated" "count" (per_analysis "engine.streams_invalidated");
    m "curve.memo_hit_ratio" "ratio"
      (ratio (g "curve.memo_hits") (g "curve.memo_hits" +. g "curve.closure_evals"));
    m "event_model.eta_probe_ns" "ns"
      (ratio (g "event_model.eta_probe_ns") (g "event_model.eta_probes"));
  ]
  @ List.map
      (fun k -> m k "" (g k))
      [ "curve.periodic_evals"; "curve.closure_evals"; "curve.search_steps";
        "curve.batch_probe_count"; "busy_window.windows";
        "busy_window.window_iterations"; "busy_window.demand_probes";
        "scheduling.local_us.spp"; "scheduling.local_us.spnp";
        "scheduling.local_us.round_robin"; "scheduling.local_us.tdma";
        "scheduling.local_us.edf"; "hem.pack_us"; "hem.inner_update_us";
        "hem.unpack_us"; "hem.frames"; "hybrid.local_us.spp";
        "hybrid.local_us.spnp"; "hybrid.local_us.tdma";
        "hybrid.local_us.round_robin"; "hybrid.of_stream_us";
        "hybrid.to_stream_us"; "rtc.bounded_elements" ]
