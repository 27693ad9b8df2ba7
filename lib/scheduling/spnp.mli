(** Static-priority non-preemptive response-time analysis.

    Models priority-arbitrated, non-preemptive resources such as the CAN
    bus of the paper's example.  The q-th instance in the busy period
    {e starts} at the least fixed point of
    [w = B_i + (q-1) * C+_i + sum_{j in hp(i)} eta_plus_j(w + 1) * C+_j]
    where [B_i] is the longest lower-priority transmission that can block
    (non-preemptive arbitration), and finishes [C+_i] later.  The [w + 1]
    closure accounts for an interferer arriving at the very instant
    arbitration is decided (discrete time). *)

val response_time :
  ?record:(q:int -> arr:int -> fin:int -> unit) ->
  task:Rt_task.t ->
  others:Rt_task.t list ->
  unit ->
  Busy_window.outcome
(** [record] observes the per-activation busy-window completions (see
    {!Busy_window.max_response}). *)

val backlog_bound :
  task:Rt_task.t -> others:Rt_task.t list -> unit -> (int, string) result
(** Bound on the number of simultaneously queued instances of the
    message — the transmit queue depth the node needs (see
    {!Busy_window.backlog}).  It walks the same busy period as
    {!response_time}. *)

val analyse : Rt_task.t list -> (Rt_task.t * Busy_window.outcome) list
(** [analyse tasks] runs {!response_time} for every message of an SPNP
    resource (e.g. every frame on a CAN bus). *)

val analyse_profiled :
  Rt_task.t list ->
  (Rt_task.t * Busy_window.outcome * Event_model.Propagation.profile option)
  list
(** Like {!analyse}, but additionally collects each message's busy-window
    completion profile (for busy-window output propagation).  The
    profile is [None] for unbounded outcomes. *)
