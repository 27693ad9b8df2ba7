(** Arrival and service curves for the RTC view of a system.

    Arrival curves here are in {e workload units} (execution demand), not
    event counts: the event bounds of an {!Event_model.Stream} are scaled
    by the worst-case execution time, which is the form the greedy
    processing component consumes.

    All tails are certified conservative: arrival curves through the
    sub/superadditive slack-anchor construction of {!Curve.certified},
    service curves either by the same construction ({!service_tdma}) or
    because their closed form makes the raw anchor provably sound. *)

val arrival_upper :
  horizon:int -> wcet:int -> Event_model.Stream.t -> Curve.t
(** [eta_plus dt * wcet] sampled on the horizon.  The tail rate is the
    best [g w / w] over a bounded window range, certified by
    subadditivity of [eta_plus]: the rounded-up tail never dips below
    [eta_plus dt * wcet] at any [dt] past the horizon.

    The samples come from one forward walk over [delta_min] on
    [0 .. horizon] (eta_plus only grows with the window, so each
    distance is read once), equal to one {!Event_model.Stream.eta_plus}
    per window.  Cost: O(horizon + eta_plus horizon) distance reads.
    @raise Invalid_argument ["Rtc.Workload: unbounded arrivals"] when
    [eta_plus horizon] is infinite — exactly when some window up to the
    horizon is. *)

val arrival_lower :
  horizon:int -> bcet:int -> Event_model.Stream.t -> Curve.t
(** [eta_minus dt * bcet], dual certification via superadditivity (the
    rounded-down tail never exceeds the guaranteed demand); a stream
    with no lower bound yields a certified zero tail.  The samples come
    from the dual walk over [delta_plus].
    @raise Invalid_argument ["Rtc.Workload: infinite guaranteed
    arrivals"] when [eta_minus horizon] is infinite. *)

val service_full : horizon:int -> Curve.t
(** Unit-rate lower service curve of a fully available resource:
    [beta dt = dt]. *)

val service_tdma : horizon:int -> slot:int -> cycle:int -> Curve.t
(** Guaranteed lower service of a TDMA slot under worst alignment (the
    same bound as {!Scheduling.Tdma.service}), with the tail anchored
    through {!Curve.certified} so the within-cycle phase at the horizon
    cannot make the extension optimistic.  The horizon is widened to at
    least one cycle. *)

val service_delayed : blocking:int -> Curve.t -> Curve.t
(** [service_delayed ~blocking beta] shifts a lower service curve right
    by a blocking term (SPNP: lower-priority non-preemptable section):
    [beta' dt = beta (dt - blocking)]. *)
