(** Differential oracles: independent implementations agreeing (or
    dominating) on the same question.

    Each oracle pairs a production code path with a reimplementation that
    shares no code with it, or with a relation the paper proves must
    hold:

    - {b backend agreement}: the compact periodic curve backend and its
      arithmetic pseudo-inversion vs naive closures over the defining
      formulas (and, for bursts, the concrete arrival pattern) with
      linear-scan inversions;
    - {b batch agreement}: batched curve sweeps ([Curve.eval_batch])
      vs the boxed scalar evaluator on unsorted, duplicate-bearing
      probe arrays, over both distance curves of every source;
    - {b engine agreement}: the incremental fixed-point engine vs a
      from-scratch recomputation — outcomes must be byte-identical,
      including iteration counts;
    - {b kernel agreement}: every optimised production operator (the
      OR merge, Θτ, the SPP/SPNP/EDF busy windows) vs the direct
      transcription of the paper's equations in {!Reference}, on the
      inputs of a converged analysis — byte-identical outcomes;
    - {b hierarchy tightness}: hierarchical analysis response bounds
      never exceed the flat-SEM baseline's;
    - {b simulation dominance}: analytic response bounds and arrival
      curves dominate the discrete-event simulator's observations, in
      both hierarchical and flat mode;
    - {b propagation dominance}: every output-propagation mode yields
      bounds dominating the simulator, [Optimal] is pointwise at least
      as tight as every single mode, and all modes coincide
      byte-identically on jitter-free periodic point-interval systems;
    - {b hybrid soundness}: the RTC/CPA coupling boundary — every
      source stream round-trips through the curve conversion pointwise
      conservatively (exactly, for jitter-free periodic sources within
      the sampled horizon) under the {!Stream.wrap} sanitizer; pure-RTC
      and pure-CPA analyses agree on single-resource SPP point systems;
      and the all-RTC analysis' bounds dominate the simulator;
    - {b cache agreement}: exploration results served through the
      content-addressed cache render byte-identically to direct,
      cache-free evaluation.

    {!verify_spec} bundles the per-system oracles with the
    {!Stream} sanitizer (plugged into the engine's [~selfcheck] hook and
    the pack-degradation warning hook) into one report. *)

type check = {
  name : string;
  ok : bool;
  detail : string;  (** witness of the first failure, or a probe count *)
}

val check : name:string -> bool -> string -> check

val pp_check : Format.formatter -> check -> unit

type report = {
  label : string;
  checks : check list;
  violations : Violation.t list;
      (** sanitizer findings collected during the run, deduplicated *)
}

val passed : report -> bool
(** All checks ok and no [Error]-severity violations ([Warning]s do not
    fail a report). *)

val pp_report : Format.formatter -> report -> unit

(** {1 Individual oracles} *)

val backend_agreement : unit -> check list
(** Compact vs naive curves for periodic, periodic-with-jitter,
    periodic-burst and sporadic models, on a dense index prefix plus
    deep probes, and eta inversions vs linear scans.  Deterministic. *)

val batch_agreement : Cpa_system.Spec.t -> check list
(** [Curve.eval_batch] vs the scalar evaluator on unsorted probe lists
    with duplicates, for the delta_min and delta_plus curves of every
    source stream of the spec (compact and closure backends alike). *)

val engine_agreement :
  ?mode:Cpa_system.Engine.mode -> Cpa_system.Spec.t -> check list
(** [analyse ~incremental:true] vs [analyse ~incremental:false] on the
    given system ([mode] defaults to [Hierarchical]). *)

val kernel_agreement : Cpa_system.Engine.result -> check list
(** Production operators vs {!Reference} on the inputs of [result],
    rebuilt as the engine's local analysis builds them (tasks through
    [result.resolve], frames through the outer stream of
    [result.pre_bus_hierarchy]), with no further engine run:
    - every CPA SPP/SPNP resource: per-element response outcome; every
      CPA EDF resource: busy period and schedulability verdict —
      rendered byte-identically;
    - every [Or_of] activation: [Combine.or_combine] vs
      {!Reference.or_combine};
    - every task with a bounded response: [Task_op.output] vs
      {!Reference.task_output};
    the stream checks on both distance curves over the backend probe
    list.  Checks are named [kernel[<resource or stream>]:production=reference],
    the name qualified with the mode for non-hierarchical results. *)

val hierarchy_tightness :
  Cpa_system.Engine.result -> Cpa_system.Engine.result -> check
(** [hierarchy_tightness hem flat]: every element bounded in both
    results satisfies [hi hem <= hi flat]; an element bounded only
    under [flat] is a failure. *)

val degradation_soundness :
  reference:Cpa_system.Engine.result ->
  Cpa_system.Engine.result ->
  check
(** [degradation_soundness ~reference degraded]: every element the
    degraded result still claims a bound for carries {e exactly} the
    fully converged reference's bound — degradation may widen bounds to
    unbounded but never invent or shift a finite one. *)

val simulation_dominance :
  ?seed:int ->
  ?horizon:int ->
  generators:(string * Des.Gen.t) list ->
  tag:string ->
  Cpa_system.Engine.result ->
  Cpa_system.Spec.t ->
  check list
(** Simulates the system and checks observed responses against the
    result's bounds and observed source arrival counts against the
    declared eta_plus. *)

val propagation_dominance :
  ?seed:int ->
  ?horizon:int ->
  ?generators:(string * Des.Gen.t) list ->
  Cpa_system.Spec.t ->
  check list
(** Analyses the system once per propagation mode (the mode forced
    spec-wide, per-task overrides cleared) and checks, per element:
    every mode analyses successfully; [Optimal]'s response bound is
    pointwise at least as tight as every single mode's; when
    [generators] are given, every mode's bounds dominate one shared
    simulation of the system (the trace is mode-independent); and on
    systems with jitter-free periodic sources and point execution /
    transmission intervals the rendered results of all modes are
    byte-identical.  Degraded runs are excluded from the tightness and
    invariance comparisons (their widened bounds carry no claim). *)

val hybrid_soundness :
  ?seed:int ->
  ?horizon:int ->
  ?generators:(string * Des.Gen.t) list ->
  Cpa_system.Spec.t ->
  check list
(** The curve-conversion soundness audit of the hybrid backend
    coupling.  Round-trips every source stream through
    {!Hybrid.Convert} ([stream -> workload curves -> stream], with
    [wcet = bcet] so the demand scaling cancels) and checks the result
    pointwise conservative — [delta_min' <= delta_min] and
    [delta_plus' >= delta_plus] — and exact on jitter-free periodic
    sources within the sampled horizon, evaluating the converted-back
    stream under the {!Stream.wrap} sanitizer; on single-resource SPP
    systems with jitter-free periodic point-interval elements, checks
    the pure-RTC and pure-CPA analyses agree on every worst-case
    response bound; and, when [generators] are given, checks the
    analysis with {e every} resource forced onto the RTC backend (EDF
    resources stay on CPA) yields bounds dominating the simulator
    (tag ["sim[hybrid]"]). *)

val cache_agreement :
  ?jobs:int ->
  base:(unit -> Cpa_system.Spec.t) ->
  Explore.Space.variant list ->
  check
(** Runs the variants through {!Explore.Driver} (cache on) and
    re-evaluates each directly with {!Explore.Summary.evaluate} (cache
    off); digests and rendered summaries must agree byte-for-byte. *)

(** {1 Whole-system entry point} *)

val verify_spec :
  ?label:string ->
  ?selfcheck:bool ->
  ?seed:int ->
  ?horizon:int ->
  ?generators:(string * Des.Gen.t) list ->
  Cpa_system.Spec.t ->
  report
(** Runs the hierarchical analysis (with the {!Stream} sanitizer wired
    into the engine's [~selfcheck] hook and pack-degradation warnings
    captured, unless [selfcheck:false]), audits every frame hierarchy,
    then runs the engine, kernel (on the hierarchical and flat-SEM
    results), batch, tightness and — when [generators] are given —
    simulation oracles.  [seed] and [horizon] configure the
    simulation. *)

val verify_case :
  ?selfcheck:bool -> ?seed:int -> ?horizon:int -> Fuzz.case -> report
(** {!verify_spec} on a fuzz case, using its generators and label. *)
