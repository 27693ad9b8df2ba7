(** Numeric real-time-calculus curves.

    The compositional approach of Thiele et al. (the paper's references
    [3], [10], [11]) describes workload and service as arrival/service
    curves and couples components with (min,+) algebra.  This module
    implements curves numerically: exact samples on a finite horizon,
    extended beyond it by a rational tail rate (rounded up for upper
    curves, down for lower curves) from a {e certified} anchor.

    Certification is the module's soundness contract.  Two constructions
    extrapolate past sampled data, and each proves its tail
    conservative: the slack-anchor construction of {!certified} for
    sub/superadditive functions, and the closed form of
    {!min_plus_deconv}, which refuses ({!Unstable}) when no finite tail
    exists.  {!create}, {!of_samples} and {!linear} take the caller's
    word for the tail; {!shift_right} and {!harmonise} only move or
    coarsen a tail that is already sound.  Tail slack is carried in a
    separate anchor offset so sampled values stay exact.

    The analysis reads these curves through two (min,+) operations, the
    output bound {!min_plus_deconv} and the delay bound
    {!horizontal_deviation}; the remaining service of [Gpc] certifies
    its own tail before wrapping it with {!of_samples}. *)

type kind =
  | Upper  (** an upper bound; tail extension rounds up *)
  | Lower  (** a lower bound; tail extension rounds down *)

type t

exception Unstable of string
(** Raised by {!min_plus_deconv} when the numerator curve's tail rate
    exceeds the denominator's: the supremum is unbounded and no finite
    curve represents it. *)

val create :
  kind:kind -> horizon:int -> tail_rate:int * int -> (int -> int) -> t
(** [create ~kind ~horizon ~tail_rate f] samples [f] on [0..horizon];
    beyond the horizon the curve continues with slope
    [fst tail_rate / snd tail_rate] anchored at [f horizon].  The caller
    asserts the tail is conservative for the function being bounded —
    prefer {!certified} when the function is sub/superadditive.
    @raise Invalid_argument if [horizon < 1], the denominator is [< 1],
    or the numerator is negative. *)

val of_samples :
  kind:kind -> tail_rate:int * int -> tail_offset:int -> int array -> t
(** [of_samples ~kind ~tail_rate ~tail_offset samples] wraps explicit
    samples (index = window size, so [samples.(0)] is the empty window)
    with a tail anchored at [samples.(horizon) + tail_offset].  The
    caller asserts tail soundness.  The curve takes ownership of the
    array: the caller must not write to it afterwards. *)

val certified : kind:kind -> window:int -> int array -> t
(** [certified ~kind ~window g] builds a curve on the table [g] of a
    function on [0 .. horizon] (so [horizon = Array.length g - 1]) with
    a tail that is {e provably} conservative for the function at every
    point past the horizon, provided it is subadditive ([Upper]) or
    superadditive ([Lower]): the tail rate is [(g.(window), window)] and
    the anchor is shifted by the worst slack of the rounded tail against
    [g] on [1..window] (sub/superadditivity extends the bound by
    induction).  A larger [window] tightens the rate estimate at the
    cost of a coarser tail denominator downstream.  Like {!of_samples},
    the curve keeps [g] as its samples, without a copy.
    @raise Invalid_argument if [horizon < 1], [window] is outside
    [1 .. horizon] or [g.(window) < 0]. *)

val equal : t -> t -> bool
(** Representation equality: same kind, same samples (hence the same
    horizon), same tail rate [(numerator, denominator)] and same tail
    offset.  Equal curves are the same function; the converse does not
    hold — the same function sampled to two horizons, or with its tail
    rate over another denominator, is unequal. *)

val kind : t -> kind

val horizon : t -> int

val tail_rate : t -> int * int
(** The slope used beyond the horizon, as [(numerator, denominator)]. *)

val tail_offset : t -> int
(** Certification slack applied to the tail anchor (non-negative for
    [Upper], non-positive for [Lower]); [eval] past the horizon starts
    from [samples horizon + tail_offset]. *)

val eval : t -> int -> int
(** Defined for every [dt >= 0] (tail extension past the horizon). *)

val linear : kind:kind -> horizon:int -> rate:int * int -> t
(** The curve [dt * num / den] (a fully available resource has
    [rate = (1, 1)]). *)

val rate_le : int * int -> int * int -> bool
(** [rate_le (n1, d1) (n2, d2)] is [n1/d1 <= n2/d2], exactly. *)

val harmonise : t -> t -> t * t
(** Coarsen both curves' tail rates onto denominator 720 when the lcm
    of their denominators exceeds it — Upper rates round up, Lower
    rates round down, so the originals are still bounded.  The
    deconvolution and the delay scan search up to [horizon + lcm], so
    this keeps their work bounded on incommensurate periods. *)

val shift_right : int -> t -> t
(** [shift_right d t] is the curve [dt -> t (dt - d)] (zero before [d]):
    a service curve delayed by a blocking term.  The horizon grows by
    [d] so the tail reproduces the original tail point-for-point.
    @raise Invalid_argument on [Upper] curves (delaying an upper bound
    is not conservative) or negative [d]. *)

val min_plus_deconv : t -> t -> t
(** [(f (/) g) dt = max over s >= 0 of f (dt + s) - g s], for an
    [Upper] numerator [f] (an arrival curve; the result is [Upper]).  The
    supremum is certified to be attained within [L = max horizon + lcm]
    of the tail denominators when [rate f <= rate g].  The result keeps
    [f]'s tail rate; its anchor slack is certified in closed form, with
    no probe rows: past the horizon every leg of the supremum sits in
    [f]'s rounded-up tail, and the slack reduces to [f]'s own tail
    offset less the margin by which the last sample exceeds its [s = 0]
    term (zero when [f]'s horizon is the shorter one).  [g] may be of
    either kind — the standard output bound deconvolves an upper
    arrival curve by a {e lower} service curve, whose floor-rounded
    tail must be used as is (re-wrapping it as [Upper] would overstate
    the service).

    Precondition: [f] is non-decreasing (every arrival curve is).  [g]
    may have any shape: it is replaced by its suffix minimum over the
    lag range, which leaves the supremum unchanged for a non-decreasing
    [f] and makes the first lag of every run of equal [f] values the
    best one of the run.

    Cost: one row per sample, [h + 1] rows for the larger horizon [h].
    The work arrays (steps of [f], tabulated [g], both envelopes) live in
    one scratch per domain that grows to the largest call and is reused
    by every later one, so a call allocates only the result's samples.
    [f] is read through its steps (from its samples, then from its tail
    rate), [g] is tabulated on [0 .. L]; each row reads, in ascending
    order, the lags landing on a step of [f] and stops once neither the
    row's largest [f] value nor a linear envelope of both operands at
    their tail rates lets a later lag beat its best.  Where the two
    rates are close the envelope stops a row soon after its maximum, so
    rows read few lags even on dense tails.
    @raise Unstable when [rate f > rate g] (unbounded supremum).
    @raise Invalid_argument when [f] is a [Lower] curve (no closed-form
    tail certificate exists for it, and no caller needs one) or
    decreases somewhere. *)

val horizontal_deviation : upper:t -> lower:t -> int option
(** [sup over dt of inf {tau | upper dt <= lower (dt - 1 + tau)}] — the
    delay bound; [None] when [rate upper > rate lower] or when some [dt]
    needs [tau > 8 * limit], with [limit = max horizon + lcm] of the
    denominators the certified range of [dt].

    Precondition: [upper] is non-decreasing.  The index [dt - 1 + tau]
    that first reaches the demand then never moves left as [dt] grows, so
    one forward pointer serves every [dt]: the cost is O(limit + the
    largest such index), for any shape of [lower].
    @raise Invalid_argument when [upper] decreases on [1 .. limit] or the
    kinds are not [(Upper, Lower)]. *)

val pp : Format.formatter -> t -> unit
