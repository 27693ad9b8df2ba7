(** The paper's equations, written directly: the differential reference
    for every optimised production path.

    Each function here is a plain transcription of its defining formula
    — linear scans over the distance functions, cold-start fixpoint
    iterations, arrival counts through [Stream.eta_plus] — with no
    packed tables, compact periodic construction, resumable search hints
    or warm starts.  Production keeps exactly one (optimised) path per
    operator; {!Oracle.kernel_agreement} and the test suite check it
    against this module.  Everything is slow on purpose: use it on small
    probe sets only. *)

(** {1 Stream operators} *)

val or_combine : Event_model.Stream.t list -> Event_model.Stream.t
(** OR-combination (eqs. 3-4) as a left fold of pairwise convolutions,
    each a direct min/max scan over every split of [n]:
    - [delta_min n = min over k of max (delta_min_a k) (delta_min_b (n - k))]
    - [delta_plus n = max over k of min (g_a k) (g_b (n - 2 - k))] with
      [g_i k = delta_plus_i (k + 2)].
    @raise Invalid_argument on the empty list. *)

val task_output :
  response:Timebase.Interval.t -> Event_model.Stream.t -> Event_model.Stream.t
(** The task output operation Θτ for a response interval [\[r-:r+\]]:
    [delta_min' n = max (delta_min n - (r+ - r-)) (delta_min' (n-1) + r-)]
    iterated from [delta_min' 1 = 0], and
    [delta_plus' n = delta_plus n + (r+ - r-)]. *)

(** {1 Busy-window analyses}

    Cold-start least fixpoints over [Busy_window.interference]: each
    activation index [q] iterates from its own demand, and every
    interference query re-inverts the arrival curves from scratch.
    Arguments and results mirror {!Scheduling.Spp}, {!Scheduling.Spnp}
    and {!Scheduling.Edf}; the backlog bounds share the production
    {!Scheduling.Busy_window.backlog} fold over their own enumeration. *)

val spp_response_time :
  task:Scheduling.Rt_task.t ->
  others:Scheduling.Rt_task.t list ->
  unit ->
  Scheduling.Busy_window.outcome
(** Completion of the q-th activation:
    [w = q * C+ + sum_{j in hp} eta_plus_j w * C+_j]. *)

val spp_backlog_bound :
  task:Scheduling.Rt_task.t ->
  others:Scheduling.Rt_task.t list ->
  unit ->
  (int, string) result

val spnp_response_time :
  task:Scheduling.Rt_task.t ->
  others:Scheduling.Rt_task.t list ->
  unit ->
  Scheduling.Busy_window.outcome
(** Start of the q-th instance:
    [w = B + (q-1) * C+ + sum_{j in hp} eta_plus_j (w + 1) * C+_j], with
    [B] the longest lower-priority [C+]; completion is [w + C+]. *)

val spnp_backlog_bound :
  task:Scheduling.Rt_task.t ->
  others:Scheduling.Rt_task.t list ->
  unit ->
  (int, string) result

val edf_busy_period : Scheduling.Edf.task list -> (int, string) result
(** Least fixpoint of [w = max 1 (sum_i eta_plus_i w * C+_i)]. *)

val edf_schedulable : Scheduling.Edf.task list -> (unit, string) result
(** The processor-demand test over [Edf.demand_bound] for every window
    up to {!edf_busy_period}. *)

(** {1 Naive stream models}

    Closures over the defining formulas of the standard event models
    (for bursts, over the concrete arrival pattern) that never touch
    [Curve.periodic]: the compact curve backend is checked against them. *)

val naive_periodic : period:int -> Event_model.Stream.t

val naive_jitter : period:int -> jitter:int -> d_min:int -> Event_model.Stream.t

val naive_burst : period:int -> burst:int -> d_min:int -> Event_model.Stream.t

val naive_sporadic : d_min:int -> Event_model.Stream.t

val scan_eta_plus : Event_model.Stream.t -> int -> Timebase.Count.t
(** Eq. 1 by linear scan: [max {n | delta_min n < dt}] ([Inf] past 8192
    events). *)

val scan_eta_minus : Event_model.Stream.t -> int -> Timebase.Count.t
(** Eq. 2 by linear scan: [min {n >= 0 | delta_plus (n + 2) > dt}]
    ([Inf] past 8192 events). *)
