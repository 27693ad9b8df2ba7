module Es = Event_model.Stream
module Time = Timebase.Time
module Count = Timebase.Count
module Interval = Timebase.Interval
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Busy = Scheduling.Busy_window
module Summary = Explore.Summary
module Trace = Des.Trace
module Port = Des.Port

type check = {
  name : string;
  ok : bool;
  detail : string;
}

let check ~name ok detail = { name; ok; detail }

let pp_check ppf c =
  Format.fprintf ppf "%s %s: %s" (if c.ok then "ok  " else "FAIL") c.name
    c.detail

let forall ~name items probe =
  let failures = List.filter_map probe items in
  match failures with
  | [] -> check ~name true (Printf.sprintf "%d probes" (List.length items))
  | first :: _ ->
    check ~name false
      (Printf.sprintf "%d/%d probes failed; first: %s" (List.length failures)
         (List.length items) first)

type report = {
  label : string;
  checks : check list;
  violations : Violation.t list;
}

let passed r =
  List.for_all (fun c -> c.ok) r.checks && Violation.errors r.violations = []

let pp_report ppf r =
  Format.fprintf ppf "@[<v>== %s ==" r.label;
  List.iter (fun c -> Format.fprintf ppf "@,%a" pp_check c) r.checks;
  List.iter (fun v -> Format.fprintf ppf "@,%a" Violation.pp v) r.violations;
  Format.fprintf ppf "@,%s@]"
    (if passed r then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* oracle 1: compact curve backend vs the naive closures of [Reference],
   which share no code with its prefix/tail arithmetic or its
   arithmetic pseudo-inversion *)

let backend_ns = List.init 65 Fun.id @ [ 100; 1000; 4097 ]

let backend_dts = [ 1; 2; 7; 10; 99; 100; 250; 1000; 2500; 10_000 ]

(* pointwise equality of both distance curves on [backend_ns] *)
let delta_agreement ~name ~labels:(la, lb) a b =
  forall ~name backend_ns (fun n ->
      let mismatch role x y =
        if Time.equal x y then None
        else
          Some
            (Printf.sprintf "%s %d: %s %s, %s %s" role n la (Time.to_string x)
               lb (Time.to_string y))
      in
      match mismatch "delta_min" (Es.delta_min a n) (Es.delta_min b n) with
      | Some _ as m -> m
      | None -> mismatch "delta_plus" (Es.delta_plus a n) (Es.delta_plus b n))

let backend_pair ~name compact naive =
  [
    delta_agreement ~name:(name ^ ":delta") ~labels:("compact", "naive")
      compact naive;
    forall ~name:(name ^ ":eta") backend_dts (fun dt ->
        let mismatch role c nv =
          if Count.equal c nv then None
          else
            Some
              (Printf.sprintf "%s dt=%d: compact %s, scan %s" role dt
                 (Count.to_string c) (Count.to_string nv))
        in
        match
          mismatch "eta_plus" (Es.eta_plus compact dt)
            (Reference.scan_eta_plus naive dt)
        with
        | Some _ as m -> m
        | None ->
          mismatch "eta_minus" (Es.eta_minus compact dt)
            (Reference.scan_eta_minus naive dt));
  ]

let backend_agreement () =
  List.concat
    [
      backend_pair ~name:"periodic(250)"
        (Es.periodic ~name:"c" ~period:250)
        (Reference.naive_periodic ~period:250);
      backend_pair ~name:"periodic(7)"
        (Es.periodic ~name:"c" ~period:7)
        (Reference.naive_periodic ~period:7);
      backend_pair ~name:"jitter(450,90)"
        (Es.periodic_jitter ~name:"c" ~period:450 ~jitter:90 ())
        (Reference.naive_jitter ~period:450 ~jitter:90 ~d_min:1);
      backend_pair ~name:"jitter(1000,3000,40)"
        (Es.periodic_jitter ~name:"c" ~period:1000 ~jitter:3000 ~d_min:40 ())
        (Reference.naive_jitter ~period:1000 ~jitter:3000 ~d_min:40);
      backend_pair ~name:"burst(1000,5,10)"
        (Es.periodic_burst ~name:"c" ~period:1000 ~burst:5 ~d_min:10)
        (Reference.naive_burst ~period:1000 ~burst:5 ~d_min:10);
      backend_pair ~name:"burst(50,3,1)"
        (Es.periodic_burst ~name:"c" ~period:50 ~burst:3 ~d_min:1)
        (Reference.naive_burst ~period:50 ~burst:3 ~d_min:1);
      backend_pair ~name:"sporadic(100)"
        (Es.sporadic ~name:"c" ~d_min:100)
        (Reference.naive_sporadic ~d_min:100);
    ]

(* ------------------------------------------------------------------ *)
(* oracle 1b: batched curve sweeps vs the boxed scalar evaluator *)

(* Deliberately unsorted and with duplicates: [eval_batch] makes no
   ordering assumption, and a batched closure evaluation must hit the
   memo for a repeated probe exactly like the scalar path does. *)
let batch_probe_lists =
  [
    [ 1; 2; 3; 5; 8; 13; 21; 34 ];
    [ 64; 2; 63; 2; 100; 1; 17; 4097; 17 ];
    [ 1000; 3; 999; 3; 1; 128 ];
  ]

let packed_of_time = function
  | Time.Fin d -> d
  | Time.Inf -> Event_model.Curve.packed_inf

let batch_agreement_curve ~name curve =
  let module Curve = Event_model.Curve in
  forall ~name batch_probe_lists (fun probes ->
      let arr = Array.of_list probes in
      let batch = Curve.eval_batch curve arr in
      let rec scan i =
        if i >= Array.length arr then None
        else
          let scalar = packed_of_time (Curve.eval curve arr.(i)) in
          if batch.(i) = scalar then scan (i + 1)
          else
            Some
              (Printf.sprintf "n=%d: batch %d, scalar %d" arr.(i) batch.(i)
                 scalar)
      in
      scan 0)

(* Both distance curves of every source stream of the spec: periodic
   compact backends from the standard constructors and closure backends
   from OR/AND combinations all pass through here. *)
let batch_agreement spec =
  List.map
    (fun (name, stream) ->
      batch_agreement_curve
        ~name:(Printf.sprintf "batch[%s]:delta_min" name)
        (Es.delta_min_curve stream))
    spec.Spec.sources
  @ List.map
      (fun (name, stream) ->
        batch_agreement_curve
          ~name:(Printf.sprintf "batch[%s]:delta_plus" name)
          (Es.delta_plus_curve stream))
      spec.Spec.sources

(* ------------------------------------------------------------------ *)
(* oracle 2: incremental engine vs from-scratch fixed point *)

let render_result (r : Engine.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "status=%s iterations=%d" (Engine.status_name r.status)
       r.iterations);
  List.iter
    (fun (o : Engine.element_outcome) ->
      Buffer.add_string b
        (Format.asprintf "\n%s@%s %a" o.element o.resource Busy.pp_outcome
           o.outcome))
    r.outcomes;
  Buffer.contents b

let engine_agreement ?(mode = Engine.Hierarchical) spec =
  let name = Printf.sprintf "engine[%s]:incremental=scratch" (Engine.mode_name mode) in
  match
    ( Engine.analyse ~mode ~incremental:true spec,
      Engine.analyse ~mode ~incremental:false spec )
  with
  | Ok inc, Ok scratch ->
    let a = render_result inc and b = render_result scratch in
    if String.equal a b then [ check ~name true "byte-identical outcomes" ]
    else [ check ~name false (Printf.sprintf "incremental:\n%s\nscratch:\n%s" a b) ]
  | Error a, Error b ->
    let a = Guard.Error.to_string a and b = Guard.Error.to_string b in
    [ check ~name (String.equal a b) (Printf.sprintf "both rejected: %s / %s" a b) ]
  | Ok _, Error e ->
    [ check ~name false ("scratch rejected: " ^ Guard.Error.to_string e) ]
  | Error e, Ok _ ->
    [ check ~name false ("incremental rejected: " ^ Guard.Error.to_string e) ]

(* ------------------------------------------------------------------ *)
(* oracle 2b: production operators vs the paper's equations *)

(* Every optimised operator — the k-way-merge OR-combination, the
   compact Θτ construction, the warm-started demand-kernel busy windows —
   must agree with [Reference] on the inputs the converged analysis
   actually feeds it.  Inputs are rebuilt from the result exactly as
   [Engine.analyse_resource] builds them: tasks resolve their activation
   against the fixed point, frames take the outer stream of their
   pre-bus hierarchy. *)

let render_verdict show = function
  | Ok v -> show v
  | Error e -> "error: " ^ e

let local_agreement ~name ~operator production reference =
  let a = production () and b = reference () in
  if String.equal a b then
    check ~name true (operator ^ ": byte-identical outcomes")
  else
    check ~name false
      (Printf.sprintf "%s: production:\n%s\nreference:\n%s" operator a b)

let resource_agreement ~qualify (r : Engine.result) (res : Spec.resource) =
  let spec = r.Engine.spec in
  let tasks =
    List.filter
      (fun (k : Spec.task) -> String.equal k.resource res.res_name)
      spec.Spec.tasks
  in
  let rt_of_task (k : Spec.task) =
    Scheduling.Rt_task.make ~name:k.task_name ~cet:k.cet ~priority:k.priority
      ~activation:(r.Engine.resolve k.activation)
  in
  (* one line per task and frame: its response outcome *)
  let busy response () =
    let frames =
      List.filter_map
        (fun (f : Spec.frame) ->
          if String.equal f.bus res.res_name then
            Some
              (Scheduling.Rt_task.make ~name:f.frame_name ~cet:f.tx_time
                 ~priority:f.frame_priority
                 ~activation:
                   (Hem.Model.outer (r.Engine.pre_bus_hierarchy f.frame_name)))
          else None)
        spec.Spec.frames
    in
    let rt_tasks = List.map rt_of_task tasks @ frames in
    String.concat "\n"
      (List.map
         (fun (task : Scheduling.Rt_task.t) ->
           let others = List.filter (fun t -> t != task) rt_tasks in
           Format.asprintf "%s %a" task.name Busy.pp_outcome
             (response ~task ~others))
         rt_tasks)
  in
  let edf busy_period schedulable () =
    let edf_tasks =
      List.map
        (fun (k : Spec.task) ->
          { Scheduling.Edf.task = rt_of_task k; deadline = Option.get k.deadline })
        tasks
    in
    Printf.sprintf "busy_period=%s schedulable=%s"
      (render_verdict string_of_int (busy_period edf_tasks))
      (render_verdict (fun () -> "ok") (schedulable edf_tasks))
  in
  let name = qualify res.res_name in
  match res.backend, res.scheduler with
  | Spec.Cpa, Spec.Spp ->
    [
      local_agreement ~name ~operator:"spp"
        (busy (fun ~task ~others ->
             Scheduling.Spp.response_time ~task ~others ()))
        (busy (fun ~task ~others ->
             Reference.spp_response_time ~task ~others ()));
    ]
  | Spec.Cpa, Spec.Spnp ->
    [
      local_agreement ~name ~operator:"spnp"
        (busy (fun ~task ~others ->
             Scheduling.Spnp.response_time ~task ~others ()))
        (busy (fun ~task ~others ->
             Reference.spnp_response_time ~task ~others ()));
    ]
  | Spec.Cpa, Spec.Edf ->
    [
      local_agreement ~name ~operator:"edf"
        (edf
           (fun ts -> Scheduling.Edf.busy_period ts)
           (fun ts -> Scheduling.Edf.schedulable ts))
        (edf Reference.edf_busy_period Reference.edf_schedulable);
    ]
  | Spec.Cpa, (Spec.Tdma | Spec.Round_robin) | Spec.Rtc, _ -> []

let rec or_nodes acc = function
  | Spec.Or_of acts -> List.fold_left or_nodes (acts :: acc) acts
  | Spec.And_of acts -> List.fold_left or_nodes acc acts
  | Spec.From_source _ | Spec.From_output _ | Spec.From_signal _
  | Spec.From_frame _ ->
    acc

let kernel_agreement (r : Engine.result) =
  let spec = r.Engine.spec in
  let qualify x =
    let x =
      match r.Engine.mode with
      | Engine.Hierarchical -> x
      | mode -> Engine.mode_name mode ^ ":" ^ x
    in
    Printf.sprintf "kernel[%s]:production=reference" x
  in
  let labels = ("production", "reference") in
  let activations =
    List.map (fun (k : Spec.task) -> k.activation) spec.Spec.tasks
    @ List.concat_map
        (fun (f : Spec.frame) ->
          List.map (fun (s : Spec.signal_binding) -> s.origin) f.signals)
        spec.Spec.frames
  in
  let ors =
    List.rev_map
      (fun acts ->
        let inputs = List.map r.Engine.resolve acts in
        let production = Event_model.Combine.or_combine inputs in
        delta_agreement
          ~name:(qualify (Es.name production))
          ~labels production
          (Reference.or_combine inputs))
      (List.fold_left or_nodes [] activations)
  in
  let outputs =
    List.filter_map
      (fun (k : Spec.task) ->
        Engine.response r k.task_name
        |> Option.map (fun response ->
               let input = r.Engine.resolve k.activation in
               delta_agreement
                 ~name:(qualify (k.task_name ^ ".out"))
                 ~labels
                 (Event_model.Task_op.output ~response input)
                 (Reference.task_output ~response input)))
      spec.Spec.tasks
  in
  List.concat_map (resource_agreement ~qualify r) spec.Spec.resources
  @ ors @ outputs

(* ------------------------------------------------------------------ *)
(* oracle 3: hierarchical vs flat-SEM baseline *)

let response_map (r : Engine.result) =
  List.map
    (fun (o : Engine.element_outcome) ->
      o.element, Busy.response_interval o.outcome)
    r.outcomes

let hierarchy_tightness (hem : Engine.result) (flat : Engine.result) =
  match hem.Engine.status, flat.Engine.status with
  | Engine.Degraded _, _ | _, Engine.Degraded _ ->
    (* widened bounds carry no tightness claim: a degraded hem result
       may be Unbounded where flat is bounded without any violation *)
    check ~name:"hem<=flat_sem" true "skipped: degraded result"
  | (Engine.Converged | Engine.Overloaded), _ ->
  let flat_map = response_map flat in
  forall ~name:"hem<=flat_sem" (response_map hem) (fun (element, hem_r) ->
      match hem_r, List.assoc_opt element flat_map with
      | _, None -> Some (element ^ " missing from flat result")
      | Some h, Some (Some f) ->
        if Interval.hi h <= Interval.hi f then None
        else
          Some
            (Printf.sprintf "%s: hem %s above flat %s" element
               (Interval.to_string h) (Interval.to_string f))
      | Some _, Some None -> None (* flat unbounded: hem strictly tighter *)
      | None, Some (Some f) ->
        Some
          (Printf.sprintf "%s: hem unbounded but flat bounded at %s" element
             (Interval.to_string f))
      | None, Some None -> None)

(* ------------------------------------------------------------------ *)
(* oracle 3b: degraded results only retain bounds that are final *)

let degradation_soundness ~reference (degraded : Engine.result) =
  let ref_map = response_map reference in
  forall ~name:"degraded:retained-bounds-final" (response_map degraded)
    (fun (element, r) ->
      match r with
      | None -> None (* widened or genuinely unbounded: claims nothing *)
      | Some d -> begin
        match List.assoc_opt element ref_map with
        | None -> Some (element ^ " missing from reference result")
        | Some None ->
          Some
            (Printf.sprintf "%s: degraded claims %s but reference is unbounded"
               element (Interval.to_string d))
        | Some (Some f) ->
          if Interval.equal d f then None
          else
            Some
              (Printf.sprintf "%s: degraded claims %s, converged bound is %s"
                 element (Interval.to_string d) (Interval.to_string f))
      end)

(* ------------------------------------------------------------------ *)
(* oracle 4: analytic bounds dominate simulator measurements *)

let sim_dts = [ 1; 10; 50; 100; 250; 1000; 2500 ]

let simulation_dominance ?(seed = 42) ?(horizon = 200_000) ~generators ~tag
    (result : Engine.result) spec =
  match Des.Simulator.run ~seed ~generators ~horizon spec with
  | Error e -> [ check ~name:(tag ^ ":simulate") false e ]
  | Ok trace ->
    let elements =
      List.map (fun (t : Spec.task) -> t.task_name) spec.Spec.tasks
      @ List.map (fun (f : Spec.frame) -> f.frame_name) spec.Spec.frames
    in
    let bounds = response_map result in
    let responses =
      forall ~name:(tag ^ ":responses") elements (fun element ->
          match List.assoc_opt element bounds with
          | None | Some None -> None (* unbounded: vacuously dominated *)
          | Some (Some bound) ->
            (match Trace.worst_response trace element with
             | Some observed when observed > Interval.hi bound ->
               Some
                 (Printf.sprintf "%s: observed %d above bound %s" element
                    observed (Interval.to_string bound))
             | _ ->
               (match Trace.best_response trace element with
                | Some best when best < Interval.lo bound ->
                  Some
                    (Printf.sprintf "%s: best %d below bound %s" element best
                       (Interval.to_string bound))
                | _ -> None)))
    in
    let sources =
      forall ~name:(tag ^ ":source-eta")
        (List.concat_map
           (fun (name, stream) -> List.map (fun dt -> name, stream, dt) sim_dts)
           spec.Spec.sources)
        (fun (name, stream, dt) ->
          let observed = Trace.observed_eta_plus trace (Port.source name) ~dt in
          let bound = Es.eta_plus stream dt in
          if Count.compare (Count.of_int observed) bound <= 0 then None
          else
            Some
              (Printf.sprintf "%s dt=%d: observed %d above eta+ %s" name dt
                 observed (Count.to_string bound)))
    in
    [ responses; sources ]

(* ------------------------------------------------------------------ *)
(* oracle 5: exploration cache on vs off *)

let render_metrics (m : Summary.metrics) =
  Printf.sprintf "converged=%b degraded=%b worst=%s util=%.4f margin=%.4f iters=%d"
    m.converged m.degraded
    (match m.worst_latency with Some w -> string_of_int w | None -> "unbounded")
    m.max_util_pct m.margin_pct m.iterations

let render_summary (s : Summary.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b s.digest;
  List.iter
    (fun (ms : Summary.mode_summary) ->
      Buffer.add_string b
        (Printf.sprintf "\n%s %s" (Engine.mode_name ms.mode)
           (render_metrics ms.metrics));
      List.iter
        (fun (element, r) ->
          Buffer.add_string b
            (Printf.sprintf "\n  %s=%s" element
               (match r with
                | Some i -> Interval.to_string i
                | None -> "unbounded")))
        ms.responses)
    s.modes;
  Buffer.contents b

let render_summary_result = function
  | Ok s -> render_summary s
  | Error e -> "error: " ^ e

let cache_agreement ?(jobs = 2) ~base variants =
  let report =
    Explore.Driver.run ~jobs (Explore.Driver.items_of_variants ~base variants)
  in
  forall ~name:"explore:cache=direct"
    (List.combine variants report.Explore.Driver.rows)
    (fun ((v : Explore.Space.variant), (row : Explore.Driver.row)) ->
      let spec = Explore.Space.apply_all (base ()) v.edits in
      let digest = Spec.digest spec in
      if not (String.equal digest row.digest) then
        Some
          (Printf.sprintf "%s: digest %s via driver, %s direct" row.label
             row.digest digest)
      else
        let direct = render_summary_result (Summary.evaluate ~digest spec) in
        let cached = render_summary_result row.summary in
        if String.equal direct cached then None
        else
          Some
            (Printf.sprintf "%s: driver summary differs from direct\n%s\n--\n%s"
               row.label cached direct))

(* ------------------------------------------------------------------ *)
(* oracle 6: propagation modes — conservative, ordered, invariant *)

module Prop = Event_model.Propagation

(* Force one propagation mode on the whole system: set the spec-wide
   default and drop any per-task overrides, so the runs compared below
   are pure single-mode analyses. *)
let forced_mode mode spec =
  let spec =
    {
      spec with
      Spec.tasks =
        List.map
          (fun (t : Spec.task) -> { t with Spec.propagation = None })
          spec.Spec.tasks;
    }
  in
  Spec.with_propagation mode spec

(* The mode-invariance claim only holds where the propagation operators
   coincide analytically: jitter-free inputs (so nothing to subtract)
   and point execution/transmission intervals (so outputs stay
   jitter-free through the whole graph).  See the propagation qcheck
   properties for the single-element version of the argument. *)
let pure_periodic_point spec =
  let point iv = Interval.lo iv = Interval.hi iv in
  List.for_all
    (fun (_, s) ->
      List.for_all
        (fun n -> Time.equal (Es.delta_min s n) (Es.delta_plus s n))
        [ 2; 3; 5; 8; 17; 64; 513 ])
    spec.Spec.sources
  && List.for_all (fun (t : Spec.task) -> point t.Spec.cet) spec.Spec.tasks
  && List.for_all
       (fun (f : Spec.frame) -> point f.Spec.tx_time)
       spec.Spec.frames

let degraded (r : Engine.result) =
  match r.Engine.status with
  | Engine.Degraded _ -> true
  | Engine.Converged | Engine.Overloaded -> false

let propagation_dominance ?(seed = 42) ?(horizon = 200_000) ?generators spec
    =
  let runs =
    List.map
      (fun m ->
        ( m,
          Engine.analyse ~mode:Engine.Hierarchical ~incremental:false
            (forced_mode m spec) ))
      Prop.all_modes
  in
  let analysed =
    List.filter_map
      (fun (m, r) -> match r with Ok r -> Some (m, r) | Error _ -> None)
      runs
  in
  let all_analyse =
    forall ~name:"propagation:analyse" runs (fun (m, r) ->
        match r with
        | Ok _ -> None
        | Error e ->
          Some (Prop.mode_name m ^ ": " ^ Guard.Error.to_string e))
  in
  (* optimal is pointwise at least as tight as every single mode *)
  let tightness =
    match List.assoc_opt Prop.Optimal analysed with
    | None -> []
    | Some opt when degraded opt -> []
    | Some opt ->
      let opt_map = response_map opt in
      List.filter_map
        (fun (m, r) ->
          if m = Prop.Optimal || degraded r then None
          else
            Some
              (forall
                 ~name:("propagation:optimal<=" ^ Prop.mode_name m)
                 (response_map r)
                 (fun (element, mode_r) ->
                   match mode_r, List.assoc_opt element opt_map with
                   | _, None ->
                     Some (element ^ " missing from optimal result")
                   | None, Some _ -> None (* mode unbounded: vacuous *)
                   | Some mr, Some (Some o) ->
                     if Interval.hi o <= Interval.hi mr then None
                     else
                       Some
                         (Printf.sprintf "%s: optimal %s above %s %s" element
                            (Interval.to_string o) (Prop.mode_name m)
                            (Interval.to_string mr))
                   | Some mr, Some None ->
                     Some
                       (Printf.sprintf
                          "%s: optimal unbounded but %s bounded at %s" element
                          (Prop.mode_name m) (Interval.to_string mr)))))
        analysed
  in
  (* every mode's bounds dominate one shared simulation of the system
     (the trace is mode-independent — modes only change the analysis) *)
  let conservatism =
    match generators with
    | None -> []
    | Some generators -> begin
      match Des.Simulator.run ~seed ~generators ~horizon spec with
      | Error e -> [ check ~name:"propagation:simulate" false e ]
      | Ok trace ->
        let elements =
          List.map (fun (t : Spec.task) -> t.task_name) spec.Spec.tasks
          @ List.map (fun (f : Spec.frame) -> f.frame_name) spec.Spec.frames
        in
        List.map
          (fun (m, r) ->
            let bounds = response_map r in
            forall
              ~name:("propagation:sim<=" ^ Prop.mode_name m)
              elements
              (fun element ->
                match List.assoc_opt element bounds with
                | None | Some None -> None (* unbounded: vacuously safe *)
                | Some (Some bound) -> begin
                  match Trace.worst_response trace element with
                  | Some observed when observed > Interval.hi bound ->
                    Some
                      (Printf.sprintf "%s: observed %d above bound %s" element
                         observed (Interval.to_string bound))
                  | _ -> begin
                    match Trace.best_response trace element with
                    | Some best when best < Interval.lo bound ->
                      Some
                        (Printf.sprintf "%s: best %d below bound %s" element
                           best (Interval.to_string bound))
                    | _ -> None
                  end
                end))
          analysed
    end
  in
  (* on jitter-free periodic inputs with point intervals the modes are
     one formula: rendered results must be byte-identical *)
  let invariance =
    if not (pure_periodic_point spec) then []
    else
      match analysed with
      | (m0, r0) :: rest
        when r0.Engine.status = Engine.Converged
             && List.for_all (fun (_, r) -> not (degraded r)) rest ->
        let reference = render_result r0 in
        [
          forall ~name:"propagation:pure-periodic-invariant" rest
            (fun (m, r) ->
              if String.equal (render_result r) reference then None
              else
                Some
                  (Printf.sprintf "%s differs from %s:\n%s\n--\n%s"
                     (Prop.mode_name m) (Prop.mode_name m0) (render_result r)
                     reference));
        ]
      | _ -> []
  in
  (all_analyse :: tightness) @ conservatism @ invariance

(* ------------------------------------------------------------------ *)
(* oracle 7: hybrid RTC<->CPA coupling soundness *)

(* Force every resource onto one local-analysis backend.  EDF resources
   stay on [Cpa]: the curve backend has no service model for dynamic
   deadlines and [Spec.validate] rejects the combination. *)
let forced_backend backend spec =
  {
    spec with
    Spec.resources =
      List.map
        (fun (r : Spec.resource) ->
          if r.Spec.scheduler = Spec.Edf then
            { r with Spec.backend = Spec.Cpa }
          else { r with Spec.backend = backend })
        spec.Spec.resources;
  }

let roundtrip_ns = [ 2; 3; 4; 5; 8; 13; 21; 34; 64 ]

(* Round trip every source stream through the conversion boundary:
   stream -> certified workload curves -> stream again, with
   [wcet = bcet] so the demand scaling cancels.  The returned stream
   must be pointwise conservative (delta_min' <= delta_min,
   delta_plus' >= delta_plus) everywhere, and exact on jitter-free
   periodic sources within the sampled horizon.  The converted-back
   stream runs under the {!Stream.wrap} sanitizer, so convention
   violations (non-monotone distances, ordering flips) surface through
   [push] as they are produced. *)
let hybrid_roundtrip ~push spec =
  let horizon = 512 and cost = 3 in
  forall ~name:"hybrid:roundtrip" spec.Spec.sources (fun (name, s) ->
      match Hybrid.Convert.of_stream ~horizon ~wcet:cost ~bcet:cost s with
      | exception Invalid_argument e -> Some (name ^ ": " ^ e)
      | curves ->
        let back =
          Stream.wrap ~on_violation:push
            (Hybrid.Convert.to_stream ~name:(name ^ "~rt") ~wcet:cost
               ~bcet:cost ~upper:curves.Hybrid.Convert.upper
               ~lower:(Some curves.Hybrid.Convert.lower))
        in
        let jitter_free =
          List.for_all
            (fun n -> Time.equal (Es.delta_min s n) (Es.delta_plus s n))
            roundtrip_ns
        in
        let h = Time.of_int horizon in
        let rec scan = function
          | [] -> None
          | n :: rest ->
            let dmin = Es.delta_min s n and dplus = Es.delta_plus s n in
            let dmin' = Es.delta_min back n
            and dplus' = Es.delta_plus back n in
            if Time.(dmin' > dmin) then
              Some
                (Printf.sprintf "%s delta_min %d: round trip %s above %s"
                   name n (Time.to_string dmin') (Time.to_string dmin))
            else if Time.(dplus' < dplus) then
              Some
                (Printf.sprintf "%s delta_plus %d: round trip %s below %s"
                   name n (Time.to_string dplus') (Time.to_string dplus))
            else if
              jitter_free
              && Time.(dplus < h)
              && not (Time.equal dmin' dmin && Time.equal dplus' dplus)
            then
              Some
                (Printf.sprintf
                   "%s n=%d: jitter-free periodic round trip not exact: \
                    [%s,%s] vs [%s,%s]"
                   name n (Time.to_string dmin') (Time.to_string dplus')
                   (Time.to_string dmin) (Time.to_string dplus))
            else scan rest
        in
        scan roundtrip_ns)

(* On a single-resource SPP point system the curve backend's
   fixed-priority service chain and the CPA busy window are the same
   recurrence, so the pure-RTC and pure-CPA analyses must agree on
   every worst-case response bound — not just dominate each other. *)
let hybrid_pure_agreement spec =
  let single_spp =
    spec.Spec.frames = []
    && (match spec.Spec.resources with
       | [ r ] -> r.Spec.scheduler = Spec.Spp
       | _ -> false)
    && pure_periodic_point spec
  in
  if not single_spp then []
  else
    match
      ( Engine.analyse ~mode:Engine.Hierarchical ~incremental:false
          (forced_backend Spec.Rtc spec),
        Engine.analyse ~mode:Engine.Hierarchical ~incremental:false
          (forced_backend Spec.Cpa spec) )
    with
    | Ok rtc, Ok cpa ->
      let cpa_map = response_map cpa in
      [
        forall ~name:"hybrid:pure-agreement" (response_map rtc)
          (fun (element, rtc_r) ->
            match rtc_r, List.assoc_opt element cpa_map with
            | _, None -> Some (element ^ " missing from cpa result")
            | None, Some None -> None
            | Some r, Some (Some c) ->
              if Interval.hi r = Interval.hi c then None
              else
                Some
                  (Printf.sprintf "%s: rtc %s vs cpa %s" element
                     (Interval.to_string r) (Interval.to_string c))
            | Some r, Some None ->
              Some
                (Printf.sprintf "%s: rtc bounded %s, cpa unbounded" element
                   (Interval.to_string r))
            | None, Some (Some c) ->
              Some
                (Printf.sprintf "%s: rtc unbounded, cpa bounded %s" element
                   (Interval.to_string c)));
      ]
    | Error e, _ ->
      [
        check ~name:"hybrid:pure-agreement" false
          ("rtc analyse rejected: " ^ Guard.Error.to_string e);
      ]
    | _, Error e ->
      [
        check ~name:"hybrid:pure-agreement" false
          ("cpa analyse rejected: " ^ Guard.Error.to_string e);
      ]

let hybrid_soundness ?(seed = 42) ?(horizon = 200_000) ?generators spec =
  let violations = ref [] in
  let push v = violations := Violation.to_string v :: !violations in
  let roundtrip = hybrid_roundtrip ~push spec in
  let sanitized =
    check ~name:"hybrid:roundtrip-sanitizer"
      (!violations = [])
      (match !violations with
      | [] -> "no violations"
      | v :: _ ->
        Printf.sprintf "%d violations; first: %s" (List.length !violations) v)
  in
  let dominance =
    match generators with
    | None -> []
    | Some generators -> begin
      let rtc_spec = forced_backend Spec.Rtc spec in
      match
        Engine.analyse ~mode:Engine.Hierarchical ~incremental:false rtc_spec
      with
      | Error e ->
        [ check ~name:"hybrid:analyse" false (Guard.Error.to_string e) ]
      | Ok r ->
        check ~name:"hybrid:analyse" true
          (Printf.sprintf "status=%s iterations=%d"
             (Engine.status_name r.Engine.status)
             r.Engine.iterations)
        :: simulation_dominance ~seed ~horizon ~generators ~tag:"sim[hybrid]"
             r rtc_spec
    end
  in
  (roundtrip :: sanitized :: hybrid_pure_agreement spec) @ dominance

(* ------------------------------------------------------------------ *)
(* full-system verification entry point *)

let verify_spec ?(label = "system") ?(selfcheck = true) ?(seed = 42)
    ?(horizon = 200_000) ?generators spec =
  let violations = ref [] in
  let seen = Hashtbl.create 64 in
  let push v =
    let key = Violation.to_string v in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      violations := v :: !violations
    end
  in
  let audit =
    if selfcheck then Some (fun s -> Stream.audit ~on_violation:push s)
    else None
  in
  if selfcheck then
    Hem.Pack.set_warn_hook (fun (w : Hem.Pack.warning) ->
        push
          (Violation.make ~severity:Violation.Warning
             ~subject:(w.frame ^ "." ^ w.signal) ~invariant:"pack.frame_gap"
             w.reason));
  Fun.protect
    ~finally:(fun () -> if selfcheck then Hem.Pack.clear_warn_hook ())
    (fun () ->
      let checks =
        match Engine.analyse ~mode:Engine.Hierarchical ?selfcheck:audit spec with
        | Error e ->
          [
            check ~name:"analyse[hierarchical]" false
              (Guard.Error.to_string e);
          ]
        | Ok hem ->
          if selfcheck then
            List.iter
              (fun (f : Spec.frame) ->
                List.iter push
                  (Stream.check_model (hem.Engine.pre_bus_hierarchy f.frame_name));
                List.iter push
                  (Stream.check_model (hem.Engine.hierarchy f.frame_name)))
              spec.Spec.frames;
          let incremental =
            List.concat_map
              (fun mode -> engine_agreement ~mode spec)
              [ Engine.Hierarchical; Engine.Flat_stream; Engine.Flat_sem ]
          in
          let batches = batch_agreement spec in
          let tightness =
            match Engine.analyse ~mode:Engine.Flat_sem spec with
            | Error e ->
              [ check ~name:"analyse[flat_sem]" false (Guard.Error.to_string e) ]
            | Ok flat ->
              kernel_agreement flat
              @ hierarchy_tightness hem flat
              ::
              (match generators with
               | None -> []
               | Some generators ->
                 simulation_dominance ~seed ~horizon ~generators ~tag:"sim[hem]"
                   hem spec
                 @ simulation_dominance ~seed ~horizon ~generators
                     ~tag:"sim[flat_sem]" flat spec)
          in
          let propagation =
            propagation_dominance ~seed ~horizon ?generators spec
          in
          let hybrid = hybrid_soundness ~seed ~horizon ?generators spec in
          (check ~name:"analyse[hierarchical]" true
             (Printf.sprintf "status=%s iterations=%d"
                (Engine.status_name hem.Engine.status)
                hem.Engine.iterations)
          :: incremental)
          @ kernel_agreement hem @ batches @ tightness @ propagation @ hybrid
      in
      { label; checks; violations = List.rev !violations })

let verify_case ?selfcheck ?seed ?horizon (case : Fuzz.case) =
  verify_spec ~label:case.Fuzz.label ?selfcheck ?seed ?horizon
    ~generators:case.Fuzz.generators (case.Fuzz.build ())
