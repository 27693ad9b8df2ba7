(** Greedy processing components.

    The basic abstraction of modular performance analysis (Thiele et
    al.): a component greedily serves the workload bounded by an arrival
    curve from the service bounded by a service curve.  Its delay is the
    horizontal deviation; the remaining (lower) service is what the
    next-lower priority level receives, which is how [Hybrid.Local]
    models a static-priority resource.

    Overload is reported honestly: a component whose arrival rate
    exceeds its service rate gets [None] for delay {e and} output curve
    — no bound is silently derived from a truncated search. *)

type result = {
  delay : int option;
      (** worst-case queueing+processing delay; [None] if unbounded *)
  output_upper : Curve.t option;
      (** upper arrival curve of the processed workload downstream;
          [None] when the component is overloaded (unbounded output
          supremum) *)
}

val remaining_service :
  arrival_upper:Curve.t -> service_lower:Curve.t -> Curve.t
(** The lower service curve left after greedily serving [arrival_upper]
    from [service_lower]:
    [remaining dt = max over 0 <= s <= dt of (service s - arrival (s+1))]
    with an exact per-period tail rate and a certified anchor. *)

val process : arrival_upper:Curve.t -> service_lower:Curve.t -> result
(** Standard GPC bounds: [delay = h-deviation] and
    [output = arrival (/) service] (deconvolved against the lower
    service curve directly, keeping its floor-rounded tail). *)
