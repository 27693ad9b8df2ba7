(** Conversions between event streams and RTC workload curves.

    The coupling boundary of the hybrid analysis: a CPA event stream
    (distance-function tuple) becomes a pair of workload arrival curves
    for an RTC resource, and the curves an RTC analysis produces become
    an event stream again for downstream CPA resources.

    Both directions are conservative by construction and exact where the
    source data is exact:

    - stream -> curves scales the arrival functions eta_plus / eta_minus
      by the worst-/best-case execution demand and certifies the tails
      through {!Rtc.Workload} (sub-/superadditivity of the etas);
    - curves -> stream pseudo-inverts the curves back into distance
      functions, dividing by the same demand constants, so on the exact
      sampled range a round trip of a stream reproduces its distances
      point for point, and past the horizon the certified tails can only
      widen the bounds (delta_min' <= delta_min, delta_plus' >=
      delta_plus). *)

type curves = {
  upper : Rtc.Curve.t;  (** workload upper bound, [wcet * eta_plus] *)
  lower : Rtc.Curve.t;  (** workload lower bound, [bcet * eta_minus] *)
}

val of_stream :
  horizon:int -> wcet:int -> bcet:int -> Event_model.Stream.t -> curves
(** Certified arrival curves of a stream's demand on a resource.
    @raise Invalid_argument when the stream admits unboundedly many
    events in a finite window (no finite arrival curve exists), or on
    [wcet < bcet], [bcet < 1], [horizon < 1]. *)

val first_reaching : Rtc.Curve.t -> int -> int option
(** [first_reaching curve target] is the smallest [dt >= 0] with
    [eval curve dt >= target] — the pseudo-inversion primitive.  Exact
    (binary search) within the horizon; past it the certified tail is
    inverted in closed form.  [None] when the curve never reaches
    [target] (zero tail rate). *)

val to_stream :
  name:string ->
  wcet:int ->
  bcet:int ->
  upper:Rtc.Curve.t ->
  lower:Rtc.Curve.t option ->
  Event_model.Stream.t
(** Pseudo-invert workload curves into an event stream:

    [delta_min n = (min {dt | upper dt >= n * wcet}) - 1]
    (clamped at 0; [upper dt >= n * wcet] iff the event bound
    [floor (upper dt / wcet)] admits [n] events in a window of [dt]),
    and
    [delta_plus n = min {dt | lower dt >= (n - 2) * bcet + 1}]
    (the smallest window guaranteed to hold [n - 1] events, which is the
    defining property of the maximum distance of [n] events); [lower =
    None] or an unreachable target yields an infinite distance.

    Dividing by the same constants that scaled {!of_stream} makes the
    round trip exact on the sampled range and conservative past it.
    @raise Invalid_argument on [wcet < 1] or [bcet < 1]. *)

val to_stream_delayed :
  name:string ->
  wcet:int ->
  bcet:int ->
  upper:Rtc.Curve.t ->
  lower:Rtc.Curve.t option ->
  lower_delay:int ->
  Event_model.Stream.t
(** [to_stream] of the lower curve delayed by [lower_delay]
    ([lower' dt = lower (dt - lower_delay)], zero before), without
    building the delayed curve: the target of [delta_plus n] ([n >= 2])
    is at least 1, which the delayed curve first reaches exactly
    [lower_delay] after [lower] does, so [delta_plus n] grows by
    [lower_delay] and [delta_min] is unchanged.  [to_stream] is the
    [lower_delay = 0] case.
    @raise Invalid_argument on [wcet < 1], [bcet < 1] or
    [lower_delay < 0]. *)
