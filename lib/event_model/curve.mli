(** Memoized monotone curves over event indices.

    A curve maps an event count [n >= 0] to a time value, is monotonically
    non-decreasing, and is evaluated lazily.  Delta curves of event streams
    ([delta_min], [delta_plus]) are represented this way; the arrival
    functions eta_plus / eta_minus are obtained by pseudo-inversion
    (paper, eqs. 1-2).

    {b Delta-curve conventions.}  Curves used as distance functions must
    satisfy [eval t 0 = eval t 1 = 0] (the distance covering zero or one
    event is zero; {!clamp_low} enforces it, [Event_model.Stream.make]
    applies it to every stream) and [delta_min <= delta_plus] pointwise.
    [Verify.Stream] audits these conventions at run time; the engine's
    [~selfcheck] hook and [hem_tool --selfcheck] wire the audit into whole
    system analyses.

    Three memo backends coexist.  The {e closure} backend ({!make})
    memoizes an arbitrary function into a dense array prefix (amortised
    O(1) append, spilling to a hash table, allocated on the first such
    probe, for probes at [n >= 2{^15}]).  The {e table} backend ({!table})
    holds the library's derived curves — OR merge, Θτ recurrence, inner
    update, pending stream, AND — as a packed int buffer filled
    contiguously by a range kernel, with no per-point closure call,
    boxing or metrics bump.  The {e compact periodic} backend
    ({!periodic}) stores an explicit finite prefix plus a periodic tail
    [(period_events, period_time)], so standard event models and
    periodic-with-burst patterns evaluate in O(1) at any [n] and the
    pseudo-inversion searches jump directly into the right period instead
    of running an exponential search.  Streams built from arbitrary user
    functions ([Event_model.Stream.make]: baselines, measured traces,
    RTC conversions, shapers) stay on the closure backend, because a
    contiguous fill of an expensive function would evaluate points no
    search asks for.

    {b Domain locality.}  The memo tables (array prefixes, spill hash
    tables, inversion hint indices) are mutable and {e not} synchronised:
    evaluating one curve from two domains concurrently is a data race.
    Curves — and everything holding them: streams, specs, engine results
    — must stay in the domain that created them.  Parallel exploration
    respects this by shipping pure-data work descriptions across domains
    and rebuilding each spec worker-side (see [Explore.Pool] and
    [Explore.Space]); cross-domain result sharing is limited to immutable
    extracts such as [Explore.Summary.t]. *)

type t

exception Unbounded of string
(** Raised when a pseudo-inversion search exceeds the safety cap (or, for
    compact periodic curves, is provably infinite), i.e. the curve appears
    bounded so the inverse would be infinite. *)

val make : (int -> Timebase.Time.t) -> t
(** [make f] memoizes [f].  [f] must be pure and monotone in [n]. *)

val table :
  ?pointwise:bool ->
  (n0:int -> len:int -> dst:int array -> pos:int -> unit) ->
  t
(** [table fill] is the curve whose packed values (see {!packed_inf}) the
    range kernel [fill] computes: [fill ~n0 ~len ~dst ~pos] stores the
    values at [n0 .. n0 + len - 1] into [dst.(pos) .. dst.(pos + len - 1)].
    Values at [n <= 1] are [0] and the kernel is only called with
    [n0 >= 2].  Every filled cell counts as one [closure_evals].

    By default the table fills contiguously to the deepest probe, and
    each call continues the previous one: [pos = n0] and [dst.(m)]
    already holds the value at [m] for every [m < n0], so a recurrence
    may read its own earlier values.  With [~pointwise:true] the kernel
    must compute every cell from [n0 + i] alone; the table then fills
    contiguously only below [2{^15}] and evaluates deeper probes one cell
    at a time ([len = 1], [dst] a scratch cell) into a spill memo, so an
    exponential search keeps O(log n) deep evaluations.  The OR merge
    and the Θτ recurrence are contiguous; the inner update, the pending
    stream, AND, the Θτ [delta_plus] fallback and the [delta_min] of the
    other propagation modes are pointwise. *)

val constant : Timebase.Time.t -> t

val periodic : prefix:int array -> period_events:int -> period_time:int -> t
(** [periodic ~prefix ~period_events ~period_time] is the compact curve
    with [eval t n = 0] for [n <= 1], [eval t n = prefix.(n - 2)] inside
    the prefix, and beyond it the recurrence
    [eval t (n + period_events) = eval t n + period_time].  The prefix
    holds finite, non-negative, monotone values and must be at least
    [period_events] long.
    @raise Invalid_argument when the shape or monotonicity constraints are
    violated. *)

val periodic_from :
  t ->
  start:int ->
  window:int ->
  cap:int ->
  period_events:int ->
  period_time:int ->
  t option
(** [periodic_from t ~start ~window ~cap ~period_events ~period_time]
    certifies that [t] is eventually periodic and returns it on the
    compact backend.  It reads [t] through {!eval_range_into} and takes
    the first [p = start, start + window, start + 2 * window, ...] up to
    [cap] at which
    [eval t n = eval t (n - period_events) + period_time] holds for every
    [n] in [p + 1 .. p + window] (with finite values); the result is then
    {!periodic} with the values of [t] at [2 .. p] as prefix and the tail
    [(period_events, period_time)].  [None] when no [p <= cap] passes or
    the values do not form a valid compact curve.

    The window check alone proves nothing about larger [n]: the caller
    must know that, for its [t], the equation holding on one window of
    [window] consecutive indices past [start] implies it for every later
    index (for example, [t] is a max of terms that are each eventually
    additive over [period_events] events, and a window of
    [window >= period_events] indices covers every residue class).
    [start > period_events] is required, so that the prefix holds a
    full period. *)

val clamp_low : t -> t
(** [clamp_low t] forces [eval _ n = 0] for [n <= 1]; periodic and table
    curves already satisfy it and are returned as they are. *)

val eval : t -> int -> Timebase.Time.t

(** {1 Packed (batched, allocation-free) evaluation}

    The hot analysis loops — busy-window interference, the OR-combination
    merge, the table kernels — probe curves millions of
    times; boxing every result as a [Time.t] and bumping a metrics
    counter per probe dominates the arithmetic itself.  The packed API
    exposes the memo's own order-preserving int encoding: [Time.Fin d]
    is [d] and [Time.Inf] is {!packed_inf} ([= max_int]), so [Stdlib]
    integer comparison, [min], [max] and addition of finite values agree
    with the corresponding [Time] operations.

    Batched sweeps charge {e one} [curve.batch_evals] bump plus the probe
    count to [curve.batch_probe_count] instead of per-probe
    [periodic_evals] traffic; closure- and table-backend memo misses are
    still charged (underlying work stays exactly counted). *)

val packed_inf : int
(** Encoding of [Time.Inf]; strictly greater than every finite value. *)

val eval_packed : t -> int -> int
(** [eval_packed t n] is [eval t n] in packed encoding.  On the compact
    periodic backend this allocates nothing. *)

val eval_batch : t -> int array -> int array
(** [eval_batch t probes] evaluates all probe indices in one sweep and
    returns the packed values, [result.(i) = eval_packed t probes.(i)].
    Probes may be unsorted and may contain duplicates. *)

val eval_range_into : t -> n0:int -> len:int -> dst:int array -> pos:int -> unit
(** [eval_range_into t ~n0 ~len ~dst ~pos] stores
    [eval_packed t (n0 + i)] into [dst.(pos + i)] for [0 <= i < len] —
    the zero-allocation range variant of {!eval_batch} used to fill SoA
    value tables incrementally.
    @raise Invalid_argument when the destination range is out of bounds. *)

val count_lt_packed : t -> lo:int -> limit:int -> int
(** [count_lt_packed t ~lo ~limit] is [count_lt t (Fin limit)] with a
    resumable search: [lo >= 1] must be a verified lower bound on the
    first index with [eval t _ >= limit] (i.e. [lo = 1], or
    [eval t (lo - 1) < limit] — in particular [lo = previous result + 1]
    is valid whenever the limit only grows between calls, as it does in
    busy-window convergence loops).  No [Time.t] is allocated.
    @raise Unbounded as {!count_lt}. *)

val backend : t -> [ `Closure | `Table | `Periodic | `Constant ]
(** Which representation backs the curve (observability / tests). *)

val periodic_tail : t -> (int * int * int) option
(** [periodic_tail t] is [Some (prefix_len, period_events, period_time)]
    when [t] is backed by the compact periodic representation: the prefix
    covers [n = 2 .. prefix_len + 1] and beyond it
    [eval t (n + period_events) = eval t n + period_time].  The tail gives
    the exact long-run rate of the curve ([period_time / period_events]
    time units per event), which exact analyses (e.g. the shaper's
    backlog-divergence test) and the verification layer rely on.  [None]
    for closure-, table- and constant-backed curves. *)

val search_cap : int
(** Safety cap on closure-backend pseudo-inversion searches (indices
    explored before {!Unbounded} is raised).  Compact periodic curves are
    inverted arithmetically and are not subject to the cap. *)

val count_lt : t -> Timebase.Time.t -> int
(** [count_lt c t] is the largest [n >= 1] with [eval c n < t], or [0]
    when no such [n] exists (i.e. already [eval c 1 >= t]); requires
    [t > 0].  For delta curves — which satisfy [eval c 1 = 0] — the result
    is always [>= 1].  This is the search kernel of eta_plus (eq. 1).
    @raise Unbounded if no bounded answer below {!search_cap} exists. *)

val first_gt : t -> offset:int -> Timebase.Time.t -> int
(** [first_gt c ~offset t] is the least [n >= 0] with
    [eval c (n + offset) > t].  This is the search kernel of eta_minus
    (eq. 2, with [offset = 2]).
    @raise Unbounded if no answer below {!search_cap} exists. *)

(** {1 Observability}

    Evaluation and search work is counted through the {!Obs.Metrics}
    registry (counter names [curve.*]).  Work on a curve is charged to the
    metrics scopes that were active when the curve was {e created}; curves
    created outside any scope (shared source streams) charge whichever
    scopes are active at evaluation time.  This keeps per-analysis
    attribution exact even when the lazy evaluation of one analysis's
    memoized streams happens inside another analysis's extent.

    Memo hits are counted per curve and flushed to the registry lazily;
    every stats read below flushes first, so totals are always exact at
    observation points. *)

type stats = {
  closure_evals : int;
      (** memo misses: closure invocations and table cells filled *)
  memo_hits : int;  (** reads served by a closure or table memo *)
  periodic_evals : int;  (** O(1) compact-backend evaluations *)
  searches : int;  (** pseudo-inversion queries *)
  search_steps : int;  (** probes across all searches *)
  spill_probes : int;  (** lookups in the deep-probe spill tables *)
  batch_evals : int;  (** batched sweeps ({!eval_batch} / {!eval_range_into}) *)
  batch_probe_count : int;  (** total probes served by batched sweeps *)
}

val stats : unit -> stats
(** Process-global monotone totals. *)

val stats_in : Obs.Metrics.scope -> stats
(** Curve work charged to one metrics scope (e.g. one engine analysis). *)

val reset_stats : unit -> unit
(** Resets the global totals; scoped cells are unaffected. *)

val stats_diff : stats -> stats -> stats
(** [stats_diff a b] is the per-field difference [a - b]. *)
