(* Per-layer replays for traced runs.  Each replay calls one layer's
   public function on a workload's own inputs at an analysed system's
   fixed point (activation streams from [result.resolve], frame
   hierarchies from [pre_bus_hierarchy]) and accumulates its time into
   [acc] under the per-layer metric name.  Curves are lazy, so every
   replay that builds streams also forces the distances a downstream
   analysis would read ([probe]); the time is that of construction plus
   those evaluations. *)

module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Stream = Event_model.Stream
module Rt_task = Scheduling.Rt_task
module Busy_window = Scheduling.Busy_window

type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 32
let get (acc : acc) key = Option.value (Hashtbl.find_opt acc key) ~default:0.0
let add (acc : acc) key v = Hashtbl.replace acc key (get acc key +. v)

let timed acc key f =
  let r, ms = Timing.time_ms (fun () -> Spans.span ("replay." ^ key) f) in
  add acc key (ms *. 1e3);
  r

let probe s =
  for n = 2 to 34 do
    ignore (Stream.delta_min s n);
    ignore (Stream.delta_plus s n)
  done

let scheduler_name = function
  | Spec.Spp -> "spp"
  | Spec.Spnp -> "spnp"
  | Spec.Round_robin -> "round_robin"
  | Spec.Tdma -> "tdma"
  | Spec.Edf -> "edf"

let eta_windows = [| 1; 5; 25; 125; 625; 3125; 15625 |]

(* Local analyses of every resource, on the CPA or RTC side by the
   resource's backend, plus the stream<->curve conversions of RTC items
   and eta+ probes on every task activation. *)
let resources acc (r : Engine.result) =
  let spec = r.spec in
  List.iter
    (fun (res : Spec.resource) ->
      let tasks =
        List.filter
          (fun (k : Spec.task) -> String.equal k.resource res.res_name)
          spec.tasks
      in
      let frames =
        List.filter
          (fun (f : Spec.frame) -> String.equal f.bus res.res_name)
          spec.frames
      in
      let rt_of_task (k : Spec.task) =
        Rt_task.make ~name:k.task_name ~cet:k.cet ~priority:k.priority
          ~activation:(r.resolve k.activation)
      in
      let rt_tasks = List.map rt_of_task tasks in
      let rt_frames =
        List.map
          (fun (f : Spec.frame) ->
            Rt_task.make ~name:f.frame_name ~cet:f.tx_time
              ~priority:f.frame_priority
              ~activation:
                (Hem.Model.outer (r.pre_bus_hierarchy f.frame_name)))
          frames
      in
      List.iter
        (fun (t : Rt_task.t) ->
          let t0 = Timing.now_ns () in
          Array.iter (fun w -> ignore (Stream.eta_plus t.activation w)) eta_windows;
          add acc "event_model.eta_probe_ns"
            (Int64.to_float (Int64.sub (Timing.now_ns ()) t0));
          add acc "event_model.eta_probes" (float (Array.length eta_windows)))
        rt_tasks;
      match res.backend with
      | Spec.Cpa -> begin
        let key = "scheduling.local_us." ^ scheduler_name res.scheduler in
        let service (k : Spec.task) = Option.get k.service in
        match res.scheduler with
        | Spec.Spp ->
          ignore (timed acc key (fun () -> Scheduling.Spp.analyse (rt_tasks @ rt_frames)))
        | Spec.Spnp ->
          ignore (timed acc key (fun () -> Scheduling.Spnp.analyse (rt_tasks @ rt_frames)))
        | Spec.Tdma ->
          let slots =
            List.map2
              (fun k task -> { Scheduling.Tdma.task; length = service k })
              tasks rt_tasks
          in
          ignore (timed acc key (fun () -> Scheduling.Tdma.analyse slots))
        | Spec.Round_robin ->
          let shares =
            List.map2
              (fun k task -> { Scheduling.Round_robin.task; quantum = service k })
              tasks rt_tasks
          in
          ignore (timed acc key (fun () -> Scheduling.Round_robin.analyse shares))
        | Spec.Edf ->
          let edf =
            List.map2
              (fun (k : Spec.task) task ->
                { Scheduling.Edf.task; deadline = Option.get k.deadline })
              tasks rt_tasks
          in
          ignore (timed acc key (fun () -> Scheduling.Edf.analyse edf))
      end
      | Spec.Rtc ->
        let policy, key =
          match res.scheduler with
          | Spec.Spp -> Hybrid.Local.Spp, "spp"
          | Spec.Spnp -> Hybrid.Local.Spnp, "spnp"
          | Spec.Tdma -> Hybrid.Local.Tdma, "tdma"
          | Spec.Round_robin -> Hybrid.Local.Round_robin, "round_robin"
          | Spec.Edf -> invalid_arg "EDF has no RTC backend"
        in
        let services =
          List.map (fun (k : Spec.task) -> k.service) tasks
          @ List.map (fun _ -> None) frames
        in
        let items =
          List.map2
            (fun service (t : Rt_task.t) ->
              { Hybrid.Local.name = t.name; cet = t.cet; priority = t.priority;
                service; activation = t.activation })
            services (rt_tasks @ rt_frames)
        in
        ignore
          (timed acc ("hybrid.local_us." ^ key) (fun () ->
             Hybrid.Local.analyse ~policy items));
        let horizon = Hybrid.Local.default_horizon policy items in
        List.iter
          (fun (it : Hybrid.Local.item) ->
            let wcet = Timebase.Interval.hi it.cet
            and bcet = Timebase.Interval.lo it.cet in
            match
              timed acc "hybrid.of_stream_us" (fun () ->
                Hybrid.Convert.of_stream ~horizon ~wcet ~bcet it.activation)
            with
            | exception Invalid_argument _ -> ()
            | curves ->
              timed acc "hybrid.to_stream_us" (fun () ->
                probe
                  (Hybrid.Convert.to_stream ~name:it.name ~wcet ~bcet
                     ~upper:curves.upper ~lower:(Some curves.lower))))
          items)
    spec.resources

(* Omega_pa, the inner update and Psi_pa for every frame whose bus
   response is bounded. *)
let frames acc (r : Engine.result) =
  List.iter
    (fun (f : Spec.frame) ->
      match Engine.response r f.frame_name with
      | None -> ()
      | Some response ->
        let signals =
          List.map
            (fun (s : Spec.signal_binding) ->
              { Comstack.Signal.name = s.signal_name; property = s.property;
                stream = r.resolve s.origin })
            f.signals
        in
        let frame =
          Comstack.Frame.make ~name:f.frame_name ~send_type:f.send_type
            ~signals ~tx_time:f.tx_time ~priority:f.frame_priority
        in
        let force (h : Hem.Model.t) =
          probe h.outer;
          List.iter (fun (i : Hem.Model.inner) -> probe i.stream) h.inners
        in
        let pre =
          timed acc "hem.pack_us" (fun () ->
            let h = Comstack.Frame.hierarchy frame in
            force h;
            h)
        in
        let post =
          timed acc "hem.inner_update_us" (fun () ->
            let h = Hem.Inner_update.apply_response ~response pre in
            force h;
            h)
        in
        timed acc "hem.unpack_us" (fun () ->
          List.iter probe (Hem.Deconstruct.unpack post));
        add acc "hem.frames" 1.0)
    r.spec.frames

(* Work counters the engine already reports for one analysis. *)
let engine_stats acc (r : Engine.result) =
  let s = r.stats in
  add acc "engine.analyses" 1.0;
  add acc "engine.iterations" (float r.iterations);
  add acc "engine.resources_analysed" (float s.resources_analysed);
  add acc "engine.resources_reused" (float s.resources_reused);
  add acc "engine.streams_invalidated" (float s.streams_invalidated);
  add acc "curve.periodic_evals" (float s.curve.periodic_evals);
  add acc "curve.closure_evals" (float s.curve.closure_evals);
  add acc "curve.memo_hits" (float s.curve.memo_hits);
  add acc "curve.search_steps" (float s.curve.search_steps);
  add acc "curve.batch_probe_count" (float s.curve.batch_probe_count);
  add acc "busy_window.windows" (float s.busy.busy_windows);
  add acc "busy_window.window_iterations" (float s.busy.window_iterations);
  add acc "busy_window.demand_probes" (float s.busy.demand_probes);
  let on_rtc (o : Engine.element_outcome) =
    List.exists
      (fun (res : Spec.resource) ->
        String.equal res.res_name o.resource && res.backend = Spec.Rtc)
      r.spec.resources
  in
  List.iter
    (fun (o : Engine.element_outcome) ->
      match o.outcome with
      | Busy_window.Bounded _ when on_rtc o -> add acc "rtc.bounded_elements" 1.0
      | _ -> ())
    r.outcomes

(* Every replay over one analysed system. *)
let all acc (r : Engine.result) =
  engine_stats acc r;
  resources acc r;
  if r.mode = Engine.Hierarchical then frames acc r
