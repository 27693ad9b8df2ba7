(** Sensitivity analysis on top of the global engine.

    Answers "how much slack does this design have": the largest scaling
    of a task's execution time, or the smallest period of a source, for
    which the system still converges to bounded response times.  Both
    searches exploit that schedulability is monotone in the varied
    parameter and multisect on it: each round evaluates [jobs] probes on
    the domain {!Pool}, shrinking the bracket by a factor of [jobs + 1].
    For a monotone predicate the threshold is unique, so the answer is
    independent of [jobs]; with [jobs = 1] the search is a plain
    bisection.

    The analyses take spec {e builders} rather than specs: probes run on
    worker domains, and each must construct its spec (and curves)
    domain-locally — passing a pre-built spec here would share curve memo
    tables across domains (see {!Pool} and [Event_model.Curve]). *)

val schedulable : ?mode:Cpa_system.Engine.mode -> Cpa_system.Spec.t -> bool
(** True iff the analysis converges with bounded responses everywhere. *)

(** Structured outcome of a margin search.  [Margin x] is the genuine
    threshold; the other cases are degenerate searches: infeasible across
    the whole interval ([No_margin]), feasibility not monotone at the
    endpoints ([Non_monotone] — the bracketing invariant would not hold),
    or an inverted/empty interval ([Empty_interval]). *)
type verdict =
  | Margin of int
  | No_margin
  | Non_monotone of {
      lo_feasible : bool;
      hi_feasible : bool;
    }
  | Empty_interval of {
      lo : int;
      hi : int;
    }

val pp_verdict : Format.formatter -> verdict -> unit

val search_max : jobs:int -> lo:int -> hi:int -> (int -> bool) -> verdict
(** Largest [x] in [\[lo, hi\]] with [good x], for [good] monotone
    (feasible prefix, then infeasible).  Both endpoints are probed (in
    parallel) first, so degenerate inputs yield the structured verdicts
    above instead of looping or inverting the interval.  [good] runs on
    worker domains. *)

val search_min : jobs:int -> lo:int -> hi:int -> (int -> bool) -> verdict
(** Smallest [x] in [\[lo, hi\]] with [good x], for [good] monotone
    (infeasible prefix, then feasible): {!search_max} on the negated
    axis, with the verdict mapped back. *)

val max_cet_scale_verdict :
  ?jobs:int ->
  ?mode:Cpa_system.Engine.mode ->
  ?limit_percent:int ->
  build:(unit -> Cpa_system.Spec.t) ->
  task:string ->
  unit ->
  verdict

val min_source_period_verdict :
  ?jobs:int ->
  ?mode:Cpa_system.Engine.mode ->
  rebuild:(int -> Cpa_system.Spec.t) ->
  lo:int ->
  hi:int ->
  unit ->
  verdict

val max_cet_scale :
  ?jobs:int ->
  ?mode:Cpa_system.Engine.mode ->
  ?limit_percent:int ->
  build:(unit -> Cpa_system.Spec.t) ->
  task:string ->
  unit ->
  int option
(** The largest percentage (searched up to [limit_percent], default
    [10_000]) such that scaling the task's execution time to it (see
    {!Space.scale_cet}) keeps [build ()] schedulable; [None] if the
    system is not schedulable even at the task's current size (100 %).
    [jobs] defaults to {!Pool.default_jobs}. *)

val min_source_period :
  ?jobs:int ->
  ?mode:Cpa_system.Engine.mode ->
  rebuild:(int -> Cpa_system.Spec.t) ->
  lo:int ->
  hi:int ->
  unit ->
  int option
(** The smallest period in [\[lo, hi\]] for which [rebuild period] is
    schedulable, assuming schedulability is monotone in the period;
    [None] if even [hi] overloads.  [rebuild] must be safe to call from
    worker domains (build streams afresh, capture no mutable state).
    @raise Invalid_argument when [lo > hi]. *)
