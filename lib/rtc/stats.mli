(** Work counters of the RTC kernels.

    Each kernel call charges its work once, on return, to the
    {!Obs.Metrics} registry (counter names [rtc.*]), so an engine
    analysis reads the RTC work of its own metrics scope, as it does for
    the busy-window counters.  Counts are deterministic: a change that
    cuts kernel work shows up here on any host. *)

type t = {
  deconv_rows : int;
      (** result samples computed by {!Curve.min_plus_deconv} *)
  deconv_candidates : int;  (** lags those rows read *)
  delay_scan_steps : int;
      (** service reads of {!Curve.horizontal_deviation} *)
  eta_walk_steps : int;
      (** distance reads of the arrival-table walks of {!Workload} *)
}

val deconv_rows : Obs.Metrics.counter
val deconv_candidates : Obs.Metrics.counter
val delay_scan_steps : Obs.Metrics.counter
val eta_walk_steps : Obs.Metrics.counter

val read : Obs.Metrics.scope -> t
(** The RTC work charged to one metrics scope. *)
