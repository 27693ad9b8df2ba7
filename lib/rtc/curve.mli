(** Numeric real-time-calculus curves.

    The compositional approach of Thiele et al. (the paper's references
    [3], [10], [11]) describes workload and service as arrival/service
    curves and couples components with (min,+) algebra.  This module
    implements curves numerically: exact samples on a finite horizon,
    extended beyond it by a rational tail rate (rounded up for upper
    curves, down for lower curves) from a {e certified} anchor.

    Certification is the module's soundness contract: every operation
    that must extrapolate past sampled data either proves its tail
    conservative (witness probes over one exact pseudo-period, the
    slack-anchor construction of {!certified}) or refuses
    ({!Unstable}).  Tail slack is carried in a separate anchor offset so
    sampled values stay exact. *)

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
    caller asserts tail soundness.  The array is copied. *)

val certified : kind:kind -> horizon:int -> window:int -> (int -> int) -> t
(** [certified ~kind ~horizon ~window g] builds a curve with a tail that
    is {e provably} conservative for [g] at every point past the
    horizon, provided [g] is subadditive ([Upper]) or superadditive
    ([Lower]): the tail rate is [(g window, window)] and the anchor is
    shifted by the worst slack of the rounded tail against [g] on
    [1..window] (sub/superadditivity extends the bound by induction).
    A larger [window] tightens the rate estimate at the cost of a
    coarser tail denominator downstream. *)

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

val harmonise : ?cap:int -> t -> t -> t * t
(** Coarsen both curves' tail rates onto denominator [cap] (default 720)
    when the lcm of their denominators exceeds it — Upper rates round
    up, Lower rates round down, so the originals are still bounded.
    Keeps certification probe periods and certified search limits small
    for downstream (min,+) work on incommensurate periods. *)

val map2 :
  (int -> int -> int) -> (int * int -> int * int -> int * int) -> t -> t -> t
(** [map2 f tail a b] combines pointwise with [f] and combines tail
    rates with [tail]; the result keeps [a]'s kind and samples through
    the {e larger} horizon (the gap a shorter curve used to cover with
    its tail extension is exact in the result).  The declared tail is
    audited against the combination over two combined periods past the
    horizon; this certifies it only when the combination is
    pseudo-periodic with the declared rate out there — true for
    {!add}/{!min}/{!max}, which use provably sufficient witnesses
    instead and should be preferred.
    @raise Invalid_argument on differing kinds. *)

val add : t -> t -> t
(** Pointwise sum with a certified tail (rate = sum of rates). *)

val min : t -> t -> t
(** Pointwise minimum with a certified tail (rate = smaller rate; for
    [Upper] curves the tail is certified against the slower curve, so it
    stays conservative even when the pointwise minimum switches branches
    arbitrarily far past the horizon). *)

val max : t -> t -> t
(** Pointwise maximum with a certified tail (rate = larger rate). *)

val shift_right : int -> t -> t
(** [shift_right d t] is the curve [dt -> t (dt - d)] (zero before [d]):
    a service curve delayed by a blocking term.  The horizon grows by
    [d] so the tail reproduces the original tail point-for-point.
    @raise Invalid_argument on [Upper] curves (delaying an upper bound
    is not conservative) or negative [d]. *)

val min_plus_conv : t -> t -> t
(** [(f (x) g) dt = min over 0 <= s <= dt of f s + g (dt - s)].
    Certified: for [Upper] arguments the tail is bounded by the witness
    [f 0 + g dt] (slower argument); for [Lower] arguments the horizon
    extends far enough that one probe period proves the tail (the
    minimising split always has a leg in a tail's exact linear
    region). *)

val min_plus_deconv : t -> t -> t
(** [(f (/) g) dt = max over s >= 0 of f (dt + s) - g s].  The supremum
    is certified to be attained within [max horizon + lcm] of the tail
    denominators when [rate f <= rate g]; the result's tail (rate of
    [f]) is certified by one probe period.  The kinds may differ — the
    standard output bound deconvolves an upper arrival curve by a
    {e lower} service curve, whose floor-rounded tail must be used as
    is (re-wrapping it as [Upper] would overstate the service); the
    result takes [f]'s kind.

    Precondition: [f] is non-decreasing (every arrival curve is).  [g]
    may have any shape: it is replaced by its suffix minimum over the
    lag range, which leaves the supremum unchanged for a non-decreasing
    [f] and makes the first lag of every run of equal [f] values the
    best one of the run.

    Cost: O(h + den_f + h + lcm) to tabulate the operands ([f] on
    [0 .. h + den_f + h + lcm], [g] on [0 .. h + lcm]), where [h] is the
    larger horizon, [den_f] the tail denominator of [f] and [lcm] that of
    both denominators after {!harmonise}; then, for each of the
    [h + den_f + 1] rows (samples and tail probes), one read per step of
    [f] in the row's lag range — a row stops early once no later step
    can beat its best value.  A staircase [f] has one step per event, so
    rows read far fewer lags than the [h + lcm] of the range; a tail
    rate close to one step per sample degrades towards that bound.
    @raise Unstable when [rate f > rate g] (unbounded supremum).
    @raise Invalid_argument when [f] decreases somewhere on its table. *)

val vertical_deviation : upper:t -> lower:t -> int option
(** [sup over dt of upper dt - lower (dt - 1)] — the buffer/backlog
    bound; [None] when [rate upper > rate lower] (the supremum is
    unbounded).  The search range is certified: past
    [max horizon + lcm] of the denominators the deviation can only
    shrink per period. *)

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
