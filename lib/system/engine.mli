(** Global compositional system analysis (SymTA/S-style iteration).

    The engine alternates local scheduling analysis of every resource with
    output event-model propagation until the response times of all tasks
    and frames reach a fixed point, starting from the optimistic
    assumption of instantaneous processing (response [\[0:0\]]) so the
    iteration converges from below.

    In [Hierarchical] mode, frames carry hierarchical event models: the
    bus is analysed on the outer stream, the inner update function adapts
    the embedded signal streams, and receivers are activated by the
    unpacked per-signal streams.  The two flat modes reproduce the
    baseline the paper compares against: every receiver of a frame is
    activated by the frame's (outer) output stream — as an exact curve
    ([Flat_stream]) or fitted to a standard event model ([Flat_sem], what
    plain SymTA/S would use). *)

type mode =
  | Hierarchical
  | Flat_stream
  | Flat_sem

val mode_name : mode -> string
(** ["hierarchical"], ["flat_stream"] or ["flat_sem"] — used for scope
    and span naming and by the CLI. *)

type element_outcome = {
  element : string;  (** task or frame name *)
  resource : string;
  outcome : Scheduling.Busy_window.outcome;
}

type stats = {
  resources_analysed : int;
      (** local analyses actually executed across all iterations *)
  resources_reused : int;
      (** local analyses skipped because no dependency changed *)
  streams_invalidated : int;
      (** memoized derived streams dropped by dirty propagation *)
  curve : Event_model.Curve.stats;  (** curve work during this analysis *)
  busy : Scheduling.Busy_window.counters;
      (** busy-window work during this analysis *)
  rtc : Rtc.Stats.t;  (** RTC kernel work of the [Rtc]-backend resources *)
}

type iteration_stat = {
  iteration : int;  (** 1-based global iteration number *)
  dirty : int;
      (** elements whose response changed in the previous iteration *)
  changed : int;  (** elements whose response changed in this one *)
  residual : int;
      (** largest response-bound movement this iteration: max over
          changed elements of [max |Δlo| |Δhi|]; [0] at the fixed point *)
  analysed : int;  (** resources re-analysed this iteration *)
  reused : int;  (** resources served from the iteration cache *)
  invalidated : int;  (** memoized streams dropped this iteration *)
}

type widened = {
  w_element : string;  (** task or frame whose bound was given up *)
  w_resource : string;
  last_estimate : Timebase.Interval.t;
      (** the last (unsound, converging-from-below) iterate — diagnostic
          only, never a valid bound *)
}

type degradation = {
  reason : Guard.Error.t;
      (** why the run stopped: [Cancelled], [Deadline_exceeded],
          [Budget_exhausted] or [Diverged] *)
  at_iteration : int;  (** the global iteration that was cut short *)
  widened : widened list;
      (** elements whose bounds were widened to [Unbounded], tagged with
          their resource, in outcome order *)
}

(** How a result should be trusted.  [Converged] results are exact fixed
    points.  [Overloaded] results contain elements that are genuinely
    unbounded (busy periods diverge).  [Degraded] results were stopped
    early; see {!degradation}.  The degradation contract: every outcome
    still [Bounded] in a degraded result is identical to what the fully
    converged analysis would produce (nothing upstream of it can still
    move), and every outcome the interrupted iteration could still have
    changed is widened to [Unbounded] — a degraded result never claims a
    bound it cannot guarantee. *)
type status =
  | Converged
  | Overloaded
  | Degraded of degradation

val status_name : status -> string
(** ["converged"], ["overloaded"] or ["degraded(<reason>)"]. *)

type result = {
  mode : mode;
  spec : Spec.t;  (** the analysed system *)
  converged : bool;  (** [status = Converged] *)
  status : status;
  iterations : int;  (** completed global iterations *)
  outcomes : element_outcome list;
  stats : stats;
  iteration_stats : iteration_stat list;
      (** per-iteration convergence telemetry, in iteration order; always
          populated (cheap to collect), independent of tracing *)
  resolve : Spec.activation -> Event_model.Stream.t;
      (** resolves an activation against the final fixed point *)
  hierarchy : string -> Hem.Model.t;
      (** post-bus hierarchical model of a frame (after the inner
          update); raises [Not_found] for unknown frames *)
  pre_bus_hierarchy : string -> Hem.Model.t;
      (** frame hierarchy as constructed by the COM layer, before bus
          transmission *)
}

val degradation : result -> degradation option
(** [Some] exactly when [status] is [Degraded]. *)

val analyse :
  ?mode:mode ->
  ?incremental:bool ->
  ?max_iterations:int ->
  ?selfcheck:(Event_model.Stream.t -> unit) ->
  ?guard:Guard.t ->
  Spec.t ->
  (result, Guard.Error.t) Stdlib.result
(** Runs the global iteration ([max_iterations] defaults to 64).  The
    local analyses cap every busy window at
    {!Scheduling.Busy_window.default_window_limit} and every busy period
    at 4096 activations; past either the element is [Unbounded].  Returns
    [Error] for invalid specifications ([Invalid_spec]) or cyclic stream
    dependencies ([Cycle], unsupported).  An overloaded element yields an
    [Unbounded] outcome and a result with [status = Overloaded].

    With [guard] (default: the ambient {!Guard.ambient} token), the
    engine checks the token at every global iteration head, and the
    busy-window loops underneath {!Guard.tick} it once per activation
    and fixpoint step — the unit work budgets are denominated in.  When
    the token trips (cancellation, deadline, budget) or the iteration
    cap is hit before the fixed point, the engine returns [Ok] with
    [status = Degraded]: the outcomes of the last completed iteration,
    with every element the fixed point could still move widened to
    [Unbounded] (see {!status} for the soundness contract).  Guard
    checkpoints cost two loads and a branch when no token is installed.

    With [incremental] (the default), derived streams and per-resource
    outcomes persist across iterations together with the set of response
    times they were derived from; an iteration re-derives only what is
    downstream of responses that actually changed in the previous one.
    Reused results are bit-identical to what a recomputation would
    produce, so outcomes, convergence and iteration counts match
    [~incremental:false] (the original engine: every iteration starts
    from scratch) exactly.

    With [selfcheck], the given audit hook runs on every stream the
    engine resolves — sources, task outputs, frame outer streams and
    unpacked signal streams — each time it is consulted, i.e. at least
    once per global iteration per propagation edge.  The verification
    layer ([Verify.Stream.audit]) plugs its invariant sanitizer in here;
    the engine itself attaches no semantics to the hook.  Without
    [selfcheck] the hot path is unchanged (a single [match] per
    resolution).

    Observability: when a {!Obs.Sink} is installed the analysis emits an
    ["engine.analyse"] span enclosing one ["engine.iteration"] span per
    global iteration, whose end attributes carry the same fields as
    {!iteration_stat}.  All curve and busy-window metric bumps are
    charged to a fresh scope named ["engine:<mode>"]; [stats] reads that
    scope, so interleaved analyses no longer contaminate each other's
    effort numbers. *)

val response : result -> string -> Timebase.Interval.t option
(** Response-time interval of a task or frame in the result, if bounded.
    @raise Not_found for unknown element names. *)

(** {1 Warm sessions}

    A warm session keeps the engine's resolution state — the response
    table, the memoized derived streams with their dependency sets, and
    the per-resource outcome cache — alive between analyses, so a
    follow-up query that edits a few elements pays only for what is
    downstream of them.  This is the serving layer's unit of state: one
    session per loaded system, updated in place per request.

    Domain locality: the cached streams carry unsynchronised curve memo
    tables, so a [warm] value must only ever be used from one domain at
    a time (the serving layer pins each session to a worker). *)

type warm

val warm :
  ?mode:mode ->
  ?guard:Guard.t ->
  Spec.t ->
  (warm * result, Guard.Error.t) Stdlib.result
(** Cold analysis that keeps its resolution context.  Equivalent to
    {!analyse} (incremental, default iteration cap, no [selfcheck]) plus
    the session handle; {!warm_update} keeps the same mode and cap. *)

val warm_update :
  ?guard:Guard.t ->
  warm ->
  spec:Spec.t ->
  stale:string list ->
  (result, Guard.Error.t) Stdlib.result
(** Re-analyses [spec] against the session's cached state.  [stale]
    must name every task/frame whose parameters or (transitive) inputs
    the new spec changes relative to the session's current one —
    compute it with {!affected} over [Explore.Space.touched] seeds, on
    {b both} the old and new specs, and union.  Stale elements are
    invalidated by key (their memo entries do not record a dependency on
    themselves), resources hosting them are re-analysed, their responses
    restart from [\[0:0\]] (the fixed point is approached from below),
    and the first iteration's dirty set is the stale set — everything
    else is served from cache, bit-identical to a from-scratch run.
    With [stale = \[\]] and an unchanged spec this is a read-back: every
    resource reports as reused and the result repeats the fixed point.
    [spec] is validated unless it is physically the session's current
    spec (the last one installed), which was validated then.

    If a previous run of this session did not converge (degraded,
    overloaded, or errored), the cached state is not a valid baseline;
    the next update resets it and runs from scratch.

    The [resolve]/[hierarchy] accessors of a returned {!result} read the
    session's live caches: they are valid until the next
    [warm_update]. *)

val affected : Spec.t -> sources:string list -> elements:string list -> string list
(** Transitive impact closure of editing the given sources and elements
    in [spec], sorted: every element downstream of a named source or
    element through activation streams and packed signals, closed under
    same-resource coupling (a local analysis re-runs whole resources, so
    one stale element perturbs the interference of all co-hosted ones).
    The named [elements] are included in the output; names absent from
    [spec] are carried through but propagate nothing. *)

val delta_outcomes :
  before:element_outcome list ->
  after:element_outcome list ->
  element_outcome list
(** The outcomes of [after] that are new or differ from their namesake
    in [before] — what a serving client needs to see after an edit.
    Elements only present in [before] (e.g. frames removed by a repack)
    are dropped; the caller reports removals separately if needed. *)
