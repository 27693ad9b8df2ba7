module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Sem = Event_model.Sem
module Curve = Event_model.Curve
module Combine = Event_model.Combine
module Busy_window = Scheduling.Busy_window
module Rt_task = Scheduling.Rt_task
module S = Set.Make (String)

let log_src = Logs.Src.create "cpa.engine" ~doc:"global analysis iteration"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode =
  | Hierarchical
  | Flat_stream
  | Flat_sem

let mode_name = function
  | Hierarchical -> "hierarchical"
  | Flat_stream -> "flat_stream"
  | Flat_sem -> "flat_sem"

let mode_of_name = function
  | "hierarchical" -> Some Hierarchical
  | "flat_stream" | "flat-stream" -> Some Flat_stream
  | "flat_sem" | "flat-sem" -> Some Flat_sem
  | _ -> None

type element_outcome = {
  element : string;
  resource : string;
  outcome : Busy_window.outcome;
}

type stats = {
  resources_analysed : int;
  resources_reused : int;
  streams_invalidated : int;
  curve : Curve.stats;
  busy : Busy_window.counters;
  rtc : Rtc.Stats.t;
}

type iteration_stat = {
  iteration : int;
  dirty : int;
  changed : int;
  residual : int;
  analysed : int;
  reused : int;
  invalidated : int;
}

type widened = {
  w_element : string;
  w_resource : string;
  last_estimate : Interval.t;
}

type degradation = {
  reason : Guard.Error.t;
  at_iteration : int;
  widened : widened list;
}

type status =
  | Converged
  | Overloaded
  | Degraded of degradation

let status_name = function
  | Converged -> "converged"
  | Overloaded -> "overloaded"
  | Degraded d ->
    Printf.sprintf "degraded(%s)" (Guard.Error.to_string d.reason)

type result = {
  mode : mode;
  spec : Spec.t;
  converged : bool;
  status : status;
  iterations : int;
  outcomes : element_outcome list;
  stats : stats;
  iteration_stats : iteration_stat list;
  resolve : Spec.activation -> Stream.t;
  hierarchy : string -> Hem.Model.t;
  pre_bus_hierarchy : string -> Hem.Model.t;
}

let degradation result =
  match result.status with Degraded d -> Some d | _ -> None

let c_degraded = Obs.Metrics.counter "engine.degraded"
let h_iteration = Obs.Hist.hist "engine.iteration_ns"

(* Persistent resolution context.  Derived streams are memoized together
   with the set of response names they (transitively) depend on: a task
   output depends on that task's response plus whatever its activation
   depends on; a post-bus frame hierarchy depends on the frame's response
   plus the dependencies of every packed signal.  Between global
   iterations only the entries downstream of responses that actually
   changed are invalidated (pycpa-style dependency-driven propagation);
   everything else — including the memoized curve prefixes inside the
   cached streams — survives.  Each task's resolved activation is one
   more such entry, so its output derivation and every local analysis of
   its resource share one stream per dependency state. *)
type post = {
  model : Hem.Model.t;
  mutable sem : Stream.t option;
      (* the flat-SEM baseline's fit to the outer stream, made on first
         use: every receiver of the frame shares it *)
}

type ctx = {
  spec : Spec.t;
  mode : mode;
  response_of : string -> Interval.t;
  activations : (string, Stream.t * S.t) Hashtbl.t;
  task_outputs : (string, Stream.t * S.t) Hashtbl.t;
  frames_pre : (string, Hem.Model.t * S.t) Hashtbl.t;
  frames_post : (string, post * S.t) Hashtbl.t;
  profiles : (string, Event_model.Propagation.profile) Hashtbl.t;
      (* per-element busy-window completion profiles from the last local
         analysis; consulted by busy_window / optimal output propagation *)
  mutable profile_changed : S.t;
      (* elements whose profile moved in the current iteration — folded
         into the changed set so downstream outputs are re-derived even
         when the response interval itself is stable *)
  rtc_outputs : (string, Stream.t * Hybrid.Local.output_key) Hashtbl.t;
      (* converted output streams of tasks on RTC-backend resources,
         with the curves they were built from for change detection;
         these replace the response-based output propagation for such
         tasks *)
  mutable rtc_changed : S.t;
      (* tasks whose converted output stream moved in the current
         iteration — folded into the changed set like [profile_changed] *)
  mutable rtc_items : Hybrid.Local.cache option;
      (* the RTC items' curves and GPC outcomes of the current run, made
         by its first RTC resource analysis and dropped when the run
         ends, so neither a result nor a warm session keeps them *)
  in_progress : (string, unit) Hashtbl.t;
  mutable dep_acc : S.t;  (* responses consulted by the ongoing resolution *)
  selfcheck : (Stream.t -> unit) option;
      (* audit hook applied to every resolved stream; [None] costs one
         match per resolution and nothing else *)
}

let make_ctx ?selfcheck spec mode response_of =
  {
    spec;
    mode;
    response_of;
    activations = Hashtbl.create 16;
    task_outputs = Hashtbl.create 16;
    frames_pre = Hashtbl.create 8;
    frames_post = Hashtbl.create 8;
    profiles = Hashtbl.create 16;
    profile_changed = S.empty;
    rtc_outputs = Hashtbl.create 8;
    rtc_changed = S.empty;
    rtc_items = None;
    in_progress = Hashtbl.create 16;
    dep_acc = S.empty;
    selfcheck;
  }

(* Completion profiles are only collected (and compared across
   iterations) when some task's effective propagation mode consumes
   them; the default Theta_tau configuration takes the exact same local
   analysis calls as before. *)
let mode_needs_profile = function
  | Event_model.Propagation.Busy_window | Event_model.Propagation.Optimal ->
    true
  | Event_model.Propagation.Theta_tau | Event_model.Propagation.Jitter
  | Event_model.Propagation.Jitter_offset
  | Event_model.Propagation.Jitter_bmin -> false

let uses_profiles (spec : Spec.t) =
  mode_needs_profile spec.Spec.default_propagation
  || List.exists
       (fun (k : Spec.task) ->
         match k.Spec.propagation with
         | Some m -> mode_needs_profile m
         | None -> false)
       spec.Spec.tasks

(* Memoization that records, per entry, the responses it was derived
   from; hits replay the recorded dependency set into the accumulator so
   enclosing computations inherit it. *)
let memo_deps ctx table key ~extra compute =
  match Hashtbl.find_opt table key with
  | Some (v, deps) ->
    ctx.dep_acc <- S.union ctx.dep_acc deps;
    v
  | None ->
    let saved = ctx.dep_acc in
    ctx.dep_acc <- S.empty;
    let v = compute () in
    let deps = S.union extra ctx.dep_acc in
    Hashtbl.add table key (v, deps);
    ctx.dep_acc <- S.union saved deps;
    v

let guarded ctx key compute =
  if Hashtbl.mem ctx.in_progress key then
    raise (Guard.Error.Error (Guard.Error.Cycle { element = key }));
  Hashtbl.add ctx.in_progress key ();
  (* exception-safe: an interrupt mid-resolution must not leave the key
     behind, or later resolutions through [result.resolve] would report
     a spurious cycle *)
  Fun.protect
    ~finally:(fun () -> Hashtbl.remove ctx.in_progress key)
    compute

let find_task spec name =
  List.find (fun (k : Spec.task) -> String.equal k.task_name name) spec.Spec.tasks

let find_frame spec name =
  List.find
    (fun (f : Spec.frame) -> String.equal f.frame_name name)
    spec.Spec.frames

(* Memo misses only: hits never reach here, so the span count is the
   number of stream derivations actually performed. *)
let stream_span kind name compute =
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "engine.stream"
      ~attrs:[ ("stream", Obs.Event.Str (kind ^ ":" ^ name)) ]
      compute
  else compute ()

let rec resolve ctx (act : Spec.activation) =
  let stream =
    match act with
    | Spec.From_source s -> List.assoc s ctx.spec.Spec.sources
    | Spec.From_output name -> task_output ctx name
    | Spec.From_frame name -> Hem.Model.outer (frame_post ctx name)
    | Spec.From_signal { frame; signal } -> begin
      let post = frame_post_entry ctx frame in
      match ctx.mode with
      | Hierarchical -> Hem.Deconstruct.unpack_label post.model signal
      | Flat_stream -> Hem.Model.outer post.model
      | Flat_sem -> (
        match post.sem with
        | Some sem -> sem
        | None ->
          let outer = Hem.Model.outer post.model in
          let sem =
            Sem.to_stream ~name:(Stream.name outer ^ "~sem") (Sem.fit outer)
          in
          post.sem <- Some sem;
          sem)
    end
    | Spec.Or_of acts -> Combine.or_combine (List.map (resolve ctx) acts)
    | Spec.And_of acts -> Combine.and_combine (List.map (resolve ctx) acts)
  in
  (match ctx.selfcheck with
   | None -> ()
   | Some audit -> audit stream);
  stream

and activation ctx (k : Spec.task) =
  memo_deps ctx ctx.activations k.Spec.task_name ~extra:S.empty (fun () ->
    resolve ctx k.Spec.activation)

and task_output ctx name =
  memo_deps ctx ctx.task_outputs name ~extra:(S.singleton name) (fun () ->
    guarded ctx ("task:" ^ name) (fun () ->
      stream_span "task" name (fun () ->
        let k = find_task ctx.spec name in
        (* tasks on RTC-backend resources emit the stream converted back
           from the GPC output curve; the table is consulted only while
           the mapping actually is RTC (a warm-session backend edit must
           not serve a stale conversion), and until the resource's first
           local analysis fills it the response-based propagation below
           seeds the fixpoint exactly like a CPA task *)
        let rtc_backed =
          match
            List.find_opt
              (fun (r : Spec.resource) ->
                String.equal r.Spec.res_name k.Spec.resource)
              ctx.spec.Spec.resources
          with
          | Some { Spec.backend = Spec.Rtc; _ } -> true
          | Some _ | None -> false
        in
        match
          if rtc_backed then Hashtbl.find_opt ctx.rtc_outputs name else None
        with
        | Some (stream, _) -> stream
        | None ->
        let input = activation ctx k in
        let response = ctx.response_of name in
        Event_model.Propagation.derive ~name:(name ^ ".out")
          ~mode:(Spec.task_propagation ctx.spec k) ~response
          ~bmin:(Interval.lo k.Spec.cet)
          ?profile:(Hashtbl.find_opt ctx.profiles name)
          input)))

and frame_pre ctx name =
  memo_deps ctx ctx.frames_pre name ~extra:S.empty (fun () ->
    guarded ctx ("frame:" ^ name) (fun () ->
      stream_span "frame_pre" name (fun () ->
        let f = find_frame ctx.spec name in
        let signals =
          List.map
            (fun (s : Spec.signal_binding) ->
              {
                Comstack.Signal.name = s.signal_name;
                property = s.property;
                stream = resolve ctx s.origin;
              })
            f.signals
        in
        Comstack.Frame.hierarchy
          (Comstack.Frame.make ~name:f.frame_name ~send_type:f.send_type
             ~signals ~tx_time:f.tx_time ~priority:f.frame_priority))))

and frame_post_entry ctx name =
  memo_deps ctx ctx.frames_post name ~extra:(S.singleton name) (fun () ->
    stream_span "frame_post" name (fun () ->
      let pre = frame_pre ctx name in
      {
        model =
          Hem.Inner_update.apply_response ~response:(ctx.response_of name) pre;
        sem = None;
      }))

and frame_post ctx name = (frame_post_entry ctx name).model

(* Store freshly collected completion profiles in the context and mark
   the elements whose profile moved (including appearing or vanishing):
   a changed profile must invalidate the element's memoized output even
   when its response interval is stable. *)
let record_profiles ctx results =
  List.map
    (fun ((rt : Rt_task.t), outcome, profile) ->
      let name = rt.Rt_task.name in
      (match Hashtbl.find_opt ctx.profiles name, profile with
       | None, None -> ()
       | Some p, Some p' when Event_model.Propagation.profile_equal p p' -> ()
       | _, Some p' ->
         Hashtbl.replace ctx.profiles name p';
         ctx.profile_changed <- S.add name ctx.profile_changed
       | Some _, None ->
         Hashtbl.remove ctx.profiles name;
         ctx.profile_changed <- S.add name ctx.profile_changed);
      rt, outcome)
    results

(* A converted output stream is kept while the key it is built from is
   unchanged: equal curves, jitter and execution times give the same
   stream, and keeping the old one keeps its memoized prefixes. *)
let record_rtc_output ctx name output =
  match output with
  | None ->
    if Hashtbl.mem ctx.rtc_outputs name then begin
      Hashtbl.remove ctx.rtc_outputs name;
      ctx.rtc_changed <- S.add name ctx.rtc_changed
    end
  | Some (stream, key) -> (
    match Hashtbl.find_opt ctx.rtc_outputs name with
    | Some (_, old) when Hybrid.Local.output_key_equal old key -> ()
    | Some _ | None ->
      Hashtbl.replace ctx.rtc_outputs name (stream, key);
      ctx.rtc_changed <- S.add name ctx.rtc_changed)

(* Local analysis of one resource under the streams of [ctx].  Returns
   the outcomes together with the set of responses the resource's
   activation streams depend on: the resource needs re-analysis only when
   one of those changes. *)
let analyse_resource ctx (res : Spec.resource) =
  let saved = ctx.dep_acc in
  ctx.dep_acc <- S.empty;
  let tasks =
    List.filter
      (fun (k : Spec.task) -> String.equal k.resource res.res_name)
      ctx.spec.Spec.tasks
  in
  let frames =
    List.filter
      (fun (f : Spec.frame) -> String.equal f.bus res.res_name)
      ctx.spec.Spec.frames
  in
  let rt_of_task (k : Spec.task) =
    Rt_task.make ~name:k.task_name ~cet:k.cet ~priority:k.priority
      ~activation:(activation ctx k)
  in
  let rt_frames =
    List.map
      (fun (f : Spec.frame) ->
        Rt_task.make ~name:f.frame_name ~cet:f.tx_time
          ~priority:f.frame_priority
          ~activation:(Hem.Model.outer (frame_pre ctx f.frame_name)))
      frames
  in
  let rt_tasks = List.map rt_of_task tasks @ rt_frames in
  let profiled = uses_profiles ctx.spec in
  let outcomes =
    match res.backend with
    | Spec.Rtc ->
      let policy =
        match res.scheduler with
        | Spec.Spp -> Hybrid.Local.Spp
        | Spec.Spnp -> Hybrid.Local.Spnp
        | Spec.Tdma -> Hybrid.Local.Tdma
        | Spec.Round_robin -> Hybrid.Local.Round_robin
        | Spec.Edf ->
          (* Spec.validate rejects this combination up front *)
          invalid_arg
            (Printf.sprintf "resource %s: EDF has no RTC backend"
               res.res_name)
      in
      let services =
        List.map (fun (k : Spec.task) -> k.Spec.service) tasks
        @ List.map (fun (_ : Spec.frame) -> None) frames
      in
      let items =
        List.map2
          (fun service (rt : Rt_task.t) ->
            {
              Hybrid.Local.name = rt.Rt_task.name;
              cet = rt.Rt_task.cet;
              priority = rt.Rt_task.priority;
              service;
              activation = rt.Rt_task.activation;
            })
          services rt_tasks
      in
      let cache =
        match ctx.rtc_items with
        | Some cache -> cache
        | None ->
          let cache = Hybrid.Local.cache () in
          ctx.rtc_items <- Some cache;
          cache
      in
      let results = Hybrid.Local.analyse ~cache ~policy items in
      (* only task outputs feed downstream activations through
         [task_output]; frame outputs flow through the frame response
         as in the CPA path.  Items list the tasks first. *)
      let n_tasks = List.length tasks in
      List.iteri
        (fun i (r : Hybrid.Local.outcome) ->
          if i < n_tasks then
            record_rtc_output ctx r.Hybrid.Local.name r.Hybrid.Local.output)
        results;
      List.map2
        (fun rt (r : Hybrid.Local.outcome) -> rt, r.Hybrid.Local.response)
        rt_tasks results
    | Spec.Cpa ->
    match res.scheduler with
    | Spec.Spp ->
      if profiled then
        record_profiles ctx (Scheduling.Spp.analyse_profiled rt_tasks)
      else Scheduling.Spp.analyse rt_tasks
    | Spec.Spnp ->
      if profiled then
        record_profiles ctx (Scheduling.Spnp.analyse_profiled rt_tasks)
      else Scheduling.Spnp.analyse rt_tasks
    | Spec.Tdma ->
      let slot_of (k : Spec.task) rt =
        { Scheduling.Tdma.task = rt; length = Option.get k.service }
      in
      let slots = List.map2 slot_of tasks (List.map rt_of_task tasks) in
      Scheduling.Tdma.analyse slots
    | Spec.Round_robin ->
      let share_of (k : Spec.task) rt =
        { Scheduling.Round_robin.task = rt; quantum = Option.get k.service }
      in
      let shares = List.map2 share_of tasks (List.map rt_of_task tasks) in
      Scheduling.Round_robin.analyse shares
    | Spec.Edf ->
      let edf_of (k : Spec.task) rt =
        { Scheduling.Edf.task = rt; deadline = Option.get k.deadline }
      in
      let edf_tasks = List.map2 edf_of tasks (List.map rt_of_task tasks) in
      Scheduling.Edf.analyse edf_tasks
  in
  let deps = ctx.dep_acc in
  ctx.dep_acc <- saved;
  ( List.map
      (fun ((rt : Rt_task.t), outcome) ->
        { element = rt.Rt_task.name; resource = res.res_name; outcome })
      outcomes,
    deps )

let touches dirty deps = S.exists (fun d -> S.mem d dirty) deps

(* Drop every memo entry derived from a response in [dirty]; returns how
   many entries were invalidated. *)
let drop_dirty table dirty =
  let stale =
    Hashtbl.fold
      (fun key ((_ : 'a), deps) acc ->
        if touches dirty deps then key :: acc else acc)
      table []
  in
  List.iter (Hashtbl.remove table) stale;
  List.length stale

(* Forgets the run's RTC item cache.  Matched first: a CPA-only run
   never makes one, and the match keeps the write barrier off its path. *)
let[@inline] drop_rtc_items ctx =
  match ctx.rtc_items with Some _ -> ctx.rtc_items <- None | None -> ()

(* The four memo tables share one lifecycle: reset together, dropped by
   dependency together and removed by key together.  A reset also drops
   the RTC item cache, so a from-scratch iteration does all its work. *)
let reset_memos ctx =
  drop_rtc_items ctx;
  Hashtbl.reset ctx.activations;
  Hashtbl.reset ctx.task_outputs;
  Hashtbl.reset ctx.frames_pre;
  Hashtbl.reset ctx.frames_post

let drop_memos ctx dirty =
  drop_dirty ctx.activations dirty
  + drop_dirty ctx.task_outputs dirty
  + drop_dirty ctx.frames_pre dirty
  + drop_dirty ctx.frames_post dirty

let remove_memos ctx key =
  Hashtbl.remove ctx.activations key;
  Hashtbl.remove ctx.task_outputs key;
  Hashtbl.remove ctx.frames_pre key;
  Hashtbl.remove ctx.frames_post key

(* The fixpoint driver, shared by cold [analyse] and warm sessions.  All
   mutable state — the response table, the memoization context, the
   per-resource outcome cache — is owned by the caller: a cold analysis
   makes it fresh, a warm session keeps it across calls and seeds
   [initial_dirty] with the elements an edit invalidated, paying only for
   what is downstream of them. *)
let run_fixpoint ~mode ~incremental ~max_iterations ~guard ~responses ~ctx
    ~resource_cache ~initial_dirty () =
  begin
    let spec = ctx.spec in
    let response_of = ctx.response_of in
    (* Every curve and busy-window counter bump during this analysis is
       charged to [scope] (curves created here carry the attachment, so
       even post-convergence evaluations through [result.resolve] keep
       accruing to the right analysis). *)
    let scope = Obs.Metrics.scope ("engine:" ^ mode_name mode) in
    let zero = Interval.make ~lo:0 ~hi:0 in
    let analysed = ref 0
    and reused = ref 0
    and invalidated = ref 0 in
    (* [dirty] is the set of elements whose response changed in the
       previous iteration; only streams and resources downstream of it
       are re-derived.  The non-incremental path reproduces the original
       engine exactly: every iteration starts from empty memo tables and
       re-analyses every resource. *)
    let run_iteration ~dirty =
      if not incremental then begin
        reset_memos ctx;
        Hashtbl.reset resource_cache
      end
      else invalidated := !invalidated + drop_memos ctx dirty;
      List.concat_map
        (fun (res : Spec.resource) ->
          match Hashtbl.find_opt resource_cache res.res_name with
          | Some (outcomes, deps) when not (touches dirty deps) ->
            incr reused;
            outcomes
          | Some _ | None ->
            let outcomes, deps =
              if Obs.Trace.enabled () then
                Obs.Trace.with_span "engine.resource"
                  ~attrs:[ ("resource", Obs.Event.Str res.res_name) ]
                  (fun () -> analyse_resource ctx res)
              else analyse_resource ctx res
            in
            Hashtbl.replace resource_cache res.res_name (outcomes, deps);
            incr analysed;
            outcomes)
        spec.Spec.resources
    in
    (* One global iteration: local analyses plus the convergence check.
       Returns the outcomes, whether every element is bounded, the set of
       elements whose response changed, and the residual — the largest
       response-bound movement (max of |Δlo|, |Δhi| over changed
       elements), i.e. the distance still to the fixed point. *)
    let step i dirty =
      let outcomes = run_iteration ~dirty in
      Log.debug (fun m ->
        m "iteration %d: %a" i
          (Format.pp_print_list ~pp_sep:Format.pp_print_space
             (fun ppf o ->
               Format.fprintf ppf "%s=%a" o.element Busy_window.pp_outcome
                 o.outcome))
          outcomes);
      let all_bounded =
        List.for_all
          (fun o ->
            match o.outcome with
            | Busy_window.Bounded _ -> true
            | Busy_window.Unbounded _ -> false)
          outcomes
      in
      let changed = ref S.empty in
      let residual = ref 0 in
      List.iter
        (fun o ->
          match o.outcome with
          | Busy_window.Bounded r ->
            let prev = response_of o.element in
            if not (Interval.equal prev r) then begin
              changed := S.add o.element !changed;
              residual :=
                Stdlib.max !residual
                  (Stdlib.max
                     (abs (Interval.lo r - Interval.lo prev))
                     (abs (Interval.hi r - Interval.hi prev)));
              Hashtbl.replace responses o.element r
            end
          | Busy_window.Unbounded _ -> ())
        outcomes;
      (* profile and converted-output movements re-dirty their element
         even when the response interval is unchanged — the next
         iteration re-derives the memoized output stream from the new
         completion data / conversion *)
      let changed =
        S.union !changed (S.union ctx.profile_changed ctx.rtc_changed)
      in
      ctx.profile_changed <- S.empty;
      ctx.rtc_changed <- S.empty;
      outcomes, all_bounded, changed, !residual
    in
    (* Snapshot of the last fully completed iteration — outcomes, the
       set of elements whose response it changed, and its number — used
       to build a degraded result when the run is interrupted mid-flight.
       [acc_stats] accumulates telemetry the same way so the interrupt
       path keeps what was measured. *)
    let last_complete : (element_outcome list * S.t * int) option ref =
      ref None
    in
    let acc_stats = ref [] in
    (* Widening for degraded exits.  The iteration converges from below
       (responses start at [0:0]), so un-settled bounds are optimistic,
       not conservative.  Anything the fixed point could still move —
       the last iteration's changed set, closed transitively over the
       recorded resource dependency sets — is widened to [Unbounded]:
       claiming nothing is the only sound claim.  Elements outside the
       closure can never change in any further iteration (nothing
       upstream of them moves), so their bounds are already final and
       are kept. *)
    let degrade ~reason ~at_iteration =
      Obs.Metrics.incr c_degraded;
      if Obs.Trace.enabled () then
        Obs.Trace.instant "engine.degraded"
          ~attrs:[ ("reason", Obs.Event.Str (Guard.Error.to_string reason)) ];
      let outcomes, seed, completed =
        match !last_complete with
        | Some (outcomes, changed, i) -> outcomes, changed, i
        | None ->
          (* interrupted before one full iteration: synthesize the
             element list; every bound is unknown *)
          let outs =
            List.concat_map
              (fun (res : Spec.resource) ->
                List.filter_map
                  (fun (k : Spec.task) ->
                    if String.equal k.resource res.res_name then
                      Some
                        {
                          element = k.task_name;
                          resource = res.res_name;
                          outcome = Busy_window.Bounded zero;
                        }
                    else None)
                  spec.Spec.tasks
                @ List.filter_map
                    (fun (f : Spec.frame) ->
                      if String.equal f.bus res.res_name then
                        Some
                          {
                            element = f.frame_name;
                            resource = res.res_name;
                            outcome = Busy_window.Bounded zero;
                          }
                      else None)
                    spec.Spec.frames)
              spec.Spec.resources
          in
          let all =
            List.fold_left (fun s o -> S.add o.element s) S.empty outs
          in
          outs, all, 0
      in
      let tainted = ref seed in
      let grew = ref true in
      while !grew do
        grew := false;
        List.iter
          (fun (res : Spec.resource) ->
            let taint_element name =
              if not (S.mem name !tainted) then begin
                tainted := S.add name !tainted;
                grew := true
              end
            in
            match Hashtbl.find_opt resource_cache res.res_name with
            | Some (outs, deps) ->
              if touches !tainted deps then
                List.iter (fun o -> taint_element o.element) outs
            | None ->
              (* never analysed: dependencies unknown, assume tainted *)
              List.iter
                (fun o ->
                  if String.equal o.resource res.res_name then
                    taint_element o.element)
                outcomes)
          spec.Spec.resources
      done;
      let widened = ref [] in
      let outcomes' =
        List.map
          (fun o ->
            match o.outcome with
            | Busy_window.Bounded r when S.mem o.element !tainted ->
              widened :=
                {
                  w_element = o.element;
                  w_resource = o.resource;
                  last_estimate = r;
                }
                :: !widened;
              {
                o with
                outcome =
                  Busy_window.Unbounded
                    ("degraded: " ^ Guard.Error.to_string reason);
              }
            | _ -> o)
          outcomes
      in
      let degr = { reason; at_iteration; widened = List.rev !widened } in
      outcomes', completed, Degraded degr
    in
    let rec iterate i dirty =
      if Guard.Inject.armed () then
        Guard.Inject.fire ("engine.iteration:" ^ string_of_int i);
      Guard.check guard;
      let a0 = !analysed and r0 = !reused and v0 = !invalidated in
      let hist_on = Obs.Hist.enabled () in
      let t0 = if hist_on then Obs.Trace.now_us () else 0.0 in
      let outcomes, all_bounded, changed, residual =
        if Obs.Trace.enabled () then begin
          let post = ref (S.empty, 0) in
          Obs.Trace.with_span "engine.iteration"
            ~attrs:
              [
                "iteration", Obs.Event.Int i;
                "dirty", Obs.Event.Int (S.cardinal dirty);
              ]
            ~end_attrs:(fun () ->
              let changed, residual = !post in
              [
                "changed", Obs.Event.Int (S.cardinal changed);
                "residual", Obs.Event.Int residual;
                "analysed", Obs.Event.Int (!analysed - a0);
                "reused", Obs.Event.Int (!reused - r0);
                "invalidated", Obs.Event.Int (!invalidated - v0);
              ])
            (fun () ->
              let (_, _, changed, residual) as r = step i dirty in
              post := (changed, residual);
              r)
        end
        else step i dirty
      in
      if hist_on then
        Obs.Hist.record h_iteration
          (int_of_float ((Obs.Trace.now_us () -. t0) *. 1e3));
      Obs.Trace.counter "engine.residual" residual;
      Obs.Trace.counter "engine.dirty" (S.cardinal changed);
      let stat =
        {
          iteration = i;
          dirty = S.cardinal dirty;
          changed = S.cardinal changed;
          residual;
          analysed = !analysed - a0;
          reused = !reused - r0;
          invalidated = !invalidated - v0;
        }
      in
      acc_stats := stat :: !acc_stats;
      last_complete := Some (outcomes, changed, i);
      if not all_bounded then outcomes, i, Overloaded
      else if S.is_empty changed then outcomes, i, Converged
      else if i >= max_iterations then
        degrade ~reason:(Guard.Error.Diverged { iterations = i })
          ~at_iteration:i
      else iterate (i + 1) changed
    in
    let run () =
      Obs.Metrics.in_scope scope (fun () ->
        Guard.with_ambient guard (fun () -> iterate 1 initial_dirty))
    in
    let traced () =
      if Obs.Trace.enabled () then
        Obs.Trace.with_span "engine.analyse"
          ~attrs:
            [
              "mode", Obs.Event.Str (mode_name mode);
              "incremental", Obs.Event.Bool incremental;
              "resources", Obs.Event.Int (List.length spec.Spec.resources);
              "tasks", Obs.Event.Int (List.length spec.Spec.tasks);
              "frames", Obs.Event.Int (List.length spec.Spec.frames);
            ]
          run
      else run ()
    in
    let finish (outcomes, iterations, status) =
      Guard.observe_completion guard;
      let stats =
        {
          resources_analysed = !analysed;
          resources_reused = !reused;
          streams_invalidated = !invalidated;
          curve = Curve.stats_in scope;
          busy = Busy_window.counters_in scope;
          rtc = Rtc.Stats.read scope;
        }
      in
      Ok
        {
          mode;
          spec;
          converged = (match status with Converged -> true | _ -> false);
          status;
          iterations;
          outcomes;
          stats;
          iteration_stats = List.rev !acc_stats;
          resolve = resolve ctx;
          hierarchy = frame_post ctx;
          pre_bus_hierarchy = frame_pre ctx;
        }
    in
    (* the RTC item cache lives for this run only *)
    match traced () with
    | outcome ->
      drop_rtc_items ctx;
      finish outcome
    | exception e -> (
      drop_rtc_items ctx;
      match e with
      | Guard.Error.Error r when Guard.Error.is_interrupt r ->
        (* a guard checkpoint tripped: degrade from the last completed
           iteration instead of failing *)
        let at_iteration =
          match !last_complete with Some (_, _, i) -> i + 1 | None -> 1
        in
        finish (degrade ~reason:r ~at_iteration)
      | Guard.Error.Error r -> Error r
      | e -> Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()))
  end

let fresh_state ?selfcheck spec mode =
  let zero = Interval.make ~lo:0 ~hi:0 in
  let responses : (string, Interval.t) Hashtbl.t = Hashtbl.create 16 in
  let response_of name =
    Option.value (Hashtbl.find_opt responses name) ~default:zero
  in
  let ctx = make_ctx ?selfcheck spec mode response_of in
  (* last local analysis per resource, with its response dependencies *)
  let resource_cache : (string, element_outcome list * S.t) Hashtbl.t =
    Hashtbl.create 8
  in
  responses, ctx, resource_cache

(* global iterations before an unconverged run degrades as [Diverged] *)
let default_max_iterations = 64

let analyse ?(mode = Hierarchical) ?(incremental = true)
    ?(max_iterations = default_max_iterations) ?selfcheck ?guard spec =
  let guard = match guard with Some g -> g | None -> Guard.ambient () in
  match Spec.validate spec with
  | Error e -> Error (Guard.Error.Invalid_spec { reason = e })
  | Ok () ->
    let responses, ctx, resource_cache = fresh_state ?selfcheck spec mode in
    run_fixpoint ~mode ~incremental ~max_iterations ~guard ~responses ~ctx
      ~resource_cache ~initial_dirty:S.empty ()

(* ------------------------------------------------------------------ *)
(* Warm sessions *)

type warm = {
  warm_mode : mode;
  warm_responses : (string, Interval.t) Hashtbl.t;
  mutable warm_ctx : ctx;
  warm_resource_cache : (string, element_outcome list * S.t) Hashtbl.t;
  mutable warm_poisoned : bool;
      (* a previous run stopped short of the fixed point (degraded or
         overloaded): the cached state is not a converged baseline, so
         the next update starts from scratch *)
}

let warm ?(mode = Hierarchical) ?guard spec =
  let guard = match guard with Some g -> g | None -> Guard.ambient () in
  match Spec.validate spec with
  | Error e -> Error (Guard.Error.Invalid_spec { reason = e })
  | Ok () -> begin
    let responses, ctx, resource_cache = fresh_state spec mode in
    match
      run_fixpoint ~mode ~incremental:true
        ~max_iterations:default_max_iterations ~guard ~responses ~ctx
        ~resource_cache ~initial_dirty:S.empty ()
    with
    | Error e -> Error e
    | Ok result ->
      Ok
        ( {
            warm_mode = mode;
            warm_responses = responses;
            warm_ctx = ctx;
            warm_resource_cache = resource_cache;
            warm_poisoned =
              (match result.status with Converged -> false | _ -> true);
          },
          result )
  end

(* Resources hosting any element of [stale] in [spec].  A resource's
   cached outcome records only its *activation* dependencies — a change
   to one of its own tasks' parameters (cet, priority) is invisible to
   that dependency set, so the host entry must be dropped explicitly. *)
let hosting_resources spec stale =
  let acc =
    List.fold_left
      (fun acc (k : Spec.task) ->
        if S.mem k.task_name stale then S.add k.resource acc else acc)
      S.empty spec.Spec.tasks
  in
  List.fold_left
    (fun acc (f : Spec.frame) ->
      if S.mem f.frame_name stale then S.add f.bus acc else acc)
    acc spec.Spec.frames

let warm_update ?guard w ~spec ~stale =
  let guard = match guard with Some g -> g | None -> Guard.ambient () in
  (* The session's own spec was validated before it was installed, and a
     [Spec.t] is immutable: a read-back need not validate it again. *)
  match if spec == w.warm_ctx.spec then Ok () else Spec.validate spec with
  | Error e -> Error (Guard.Error.Invalid_spec { reason = e })
  | Ok () ->
    let ctx0 = w.warm_ctx in
    let initial_dirty =
      if w.warm_poisoned then begin
        (* no converged baseline to be incremental against *)
        reset_memos ctx0;
        Hashtbl.reset ctx0.profiles;
        ctx0.profile_changed <- S.empty;
        Hashtbl.reset w.warm_resource_cache;
        Hashtbl.reset w.warm_responses;
        S.empty
      end
      else begin
        let stale_set = S.of_list stale in
        (* Stale elements are invalidated by KEY, not only through
           [drop_dirty]: a memo entry does not depend on its own
           response (a frame's pre-bus hierarchy depends on none at
           all), so dependency-driven dropping alone would keep serving
           streams built from the old parameters. *)
        S.iter
          (fun k ->
            remove_memos ctx0 k;
            Hashtbl.remove ctx0.profiles k)
          stale_set;
        S.iter
          (Hashtbl.remove w.warm_resource_cache)
          (S.union
             (hosting_resources ctx0.spec stale_set)
             (hosting_resources spec stale_set));
        (* converge from below: a stale element's old response may
           overshoot its new fixed point *)
        S.iter (Hashtbl.remove w.warm_responses) stale_set;
        stale_set
      end
    in
    let ctx =
      { ctx0 with spec; in_progress = Hashtbl.create 16; dep_acc = S.empty }
    in
    w.warm_ctx <- ctx;
    let result =
      run_fixpoint ~mode:w.warm_mode ~incremental:true
        ~max_iterations:default_max_iterations ~guard
        ~responses:w.warm_responses ~ctx
        ~resource_cache:w.warm_resource_cache ~initial_dirty ()
    in
    (match result with
     | Ok r ->
       w.warm_poisoned <- (match r.status with Converged -> false | _ -> true)
     | Error _ -> w.warm_poisoned <- true);
    result

(* ------------------------------------------------------------------ *)
(* Static impact closure *)

let activation_refs act =
  let rec go ((srcs, els) as acc) = function
    | Spec.From_source s -> S.add s srcs, els
    | Spec.From_output t -> srcs, S.add t els
    | Spec.From_frame f -> srcs, S.add f els
    | Spec.From_signal { frame; _ } -> srcs, S.add frame els
    | Spec.Or_of acts | Spec.And_of acts -> List.fold_left go acc acts
  in
  go (S.empty, S.empty) act

let affected spec ~sources ~elements =
  let src_set = S.of_list sources in
  (* element -> the sources and elements its activation streams read *)
  let edges =
    List.map
      (fun (k : Spec.task) -> k.task_name, activation_refs k.activation)
      spec.Spec.tasks
    @ List.map
        (fun (f : Spec.frame) ->
          ( f.frame_name,
            List.fold_left
              (fun (srcs, els) (s : Spec.signal_binding) ->
                let s', e' = activation_refs s.origin in
                S.union srcs s', S.union els e')
              (S.empty, S.empty) f.signals ))
        spec.Spec.frames
  in
  let members =
    List.map
      (fun (res : Spec.resource) ->
        List.filter_map
          (fun (k : Spec.task) ->
            if String.equal k.resource res.res_name then Some k.task_name
            else None)
          spec.Spec.tasks
        @ List.filter_map
            (fun (f : Spec.frame) ->
              if String.equal f.bus res.res_name then Some f.frame_name
              else None)
            spec.Spec.frames)
      spec.Spec.resources
  in
  let stale = ref (S.of_list elements) in
  let grew = ref true in
  let mark name =
    if not (S.mem name !stale) then begin
      stale := S.add name !stale;
      grew := true
    end
  in
  while !grew do
    grew := false;
    (* downstream of a stale input *)
    List.iter
      (fun (name, (srcs, els)) ->
        if
          (not (S.mem name !stale))
          && (S.exists (fun s -> S.mem s src_set) srcs
             || S.exists (fun e -> S.mem e !stale) els)
        then mark name)
      edges;
    (* local-analysis coupling: one stale element on a resource changes
       the interference every co-hosted element sees *)
    List.iter
      (fun group ->
        if List.exists (fun m -> S.mem m !stale) group then
          List.iter mark group)
      members
  done;
  S.elements !stale

let outcome_equal a b =
  match a, b with
  | Busy_window.Bounded x, Busy_window.Bounded y -> Interval.equal x y
  | Busy_window.Unbounded x, Busy_window.Unbounded y -> String.equal x y
  | Busy_window.Bounded _, Busy_window.Unbounded _
  | Busy_window.Unbounded _, Busy_window.Bounded _ -> false

let delta_outcomes ~before ~after =
  List.filter
    (fun o ->
      match
        List.find_opt (fun b -> String.equal b.element o.element) before
      with
      | Some b ->
        (not (String.equal b.resource o.resource))
        || not (outcome_equal b.outcome o.outcome)
      | None -> true)
    after

let response result name =
  match
    List.find (fun o -> String.equal o.element name) result.outcomes
  with
  | { outcome = Busy_window.Bounded r; _ } -> Some r
  | { outcome = Busy_window.Unbounded _; _ } -> None
