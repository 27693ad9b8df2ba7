(** RTC local analysis of one resource.

    The RTC counterpart of the busy-window local analyses in
    {!Scheduling}: activations are converted to certified workload
    arrival curves ({!Convert}), the resource model to lower service
    curves ({!Rtc.Workload}), per-element bounds come from the greedy
    processing component ({!Rtc.Gpc}), and each element's processed
    output is converted back to an event stream for downstream
    resources.

    Conventions match the CPA analyses exactly so the two backends are
    interchangeable per resource: a numerically smaller priority is a
    higher priority, equal priorities interfere with each other, SPNP
    blocking is the longest lower-priority execution, and TDMA /
    round-robin use the per-element [service] parameter as slot length /
    quantum. *)

type policy =
  | Spp
  | Spnp
  | Tdma
  | Round_robin  (** analysed as TDMA with quantum-sized slots *)

type item = {
  name : string;
  cet : Timebase.Interval.t;
  priority : int;
  service : int option;  (** TDMA slot length / round-robin quantum *)
  activation : Event_model.Stream.t;
}

type output_key = {
  upper : Rtc.Curve.t;  (** the GPC output curve *)
  lower : Rtc.Curve.t;  (** the input's lower workload curve *)
  jitter : int;  (** response jitter [delay - bcet], clamped at 0 *)
  wcet : int;
  bcet : int;
}
(** Everything an output stream is built from besides its name: the
    stream is {!Convert.to_stream_delayed} of [upper] and [lower]
    delayed by [jitter]. *)

val output_key_equal : output_key -> output_key -> bool
(** Field-wise equality, curves by {!Rtc.Curve.equal}.  Equal keys give
    identical streams, so comparing keys detects exactly whether an
    element's output stream moved (unequal keys may still give the same
    stream, see {!Rtc.Curve.equal}). *)

type outcome = {
  name : string;
  response : Scheduling.Busy_window.outcome;
      (** [Bounded [bcet : rtc delay]], or [Unbounded] when the
          element's arrival rate exceeds its guaranteed service rate (or
          its activations admit no finite arrival curve) *)
  output : (Event_model.Stream.t * output_key) option;
      (** the processed stream (named [name ^ ".out"]) and its key:
          upper bound from the GPC output curve, lower bound from the
          response-jitter shift of the input's lower curve; [None] for
          unbounded elements *)
}

val default_horizon : policy -> item list -> int
(** Sampling horizon heuristic: covers a multiple of the slowest
    element's 33-event span, the summed worst-case demand, and (for
    slot-based policies) several full cycles; clamped to
    [\[128, 4096\]]. *)

type cache
(** The arrival curves and GPC outcome of each item's last analysis,
    keyed by item name, with the inputs they were built from: the
    activation stream (compared with [==]), the horizon and the CET for
    the curves; both arrival curves, the service curve and the CET for
    the outcome (curves compared with [==] or {!Rtc.Curve.equal}).

    Reuse is exact.  Each entry is a pure function of what is stored
    next to it: streams are immutable values, {!Rtc.Curve.equal} is
    representation equality, and item names are unique within a spec
    ([Spec.validate]).  A hit therefore returns exactly what
    recomputation would; only the {!Rtc.Stats} work counters differ
    (and [rtc.items_reused] counts the outcomes served).  The
    remaining-service folds of static priorities are not kept. *)

val cache : unit -> cache
(** An empty cache. *)

val analyse : ?cache:cache -> policy:policy -> item list -> outcome list
(** Analyse every item of one resource, in input order.  Never raises
    for unbounded arrivals or overload — those yield [Unbounded]
    outcomes with a reason.  The sampling range escalates
    geometrically from 256 up to {!default_horizon},
    stopping at the first round that bounds every item: curve
    operations are near-linear in the horizon and any horizon is sound
    (a shorter one can only be looser), so well-dimensioned systems pay
    the small-range cost only.

    [cache] (default: a fresh one) is consulted before each item's
    arrival curves and GPC step and updated after them.  Passing the
    same cache to successive analyses of a resource lets items whose
    inputs did not move skip their work; the outcomes are the same
    with or without it.  Escalation rounds miss, since the horizon is
    part of every key. *)
