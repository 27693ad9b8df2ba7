(** Static-priority preemptive response-time analysis.

    The classic busy-window analysis for SPP resources (CPUs in the
    paper's example) with arbitrary activation event streams and arbitrary
    deadlines: the q-th activation in the level-i busy period completes at
    the least fixed point of
    [w = q * C+_i + sum_{j in hp(i)} eta_plus_j(w) * C+_j].
    Equal priorities are conservatively treated as interference. *)

val response_time :
  ?record:(q:int -> arr:int -> fin:int -> unit) ->
  task:Rt_task.t ->
  others:Rt_task.t list ->
  unit ->
  Busy_window.outcome
(** Response-time interval of [task] given the other tasks sharing the
    resource.  The best case is the task's best-case execution time.
    [record] observes the per-activation busy-window completions (see
    {!Busy_window.max_response}). *)

val backlog_bound :
  task:Rt_task.t -> others:Rt_task.t list -> unit -> (int, string) result
(** Bound on the number of simultaneously pending activations of [task]
    — the activation queue the task needs (see {!Busy_window.backlog}).
    It walks the same busy period as {!response_time}. *)

val analyse : Rt_task.t list -> (Rt_task.t * Busy_window.outcome) list
(** [analyse tasks] runs {!response_time} for every task of an SPP
    resource. *)

val analyse_profiled :
  Rt_task.t list ->
  (Rt_task.t * Busy_window.outcome * Event_model.Propagation.profile option)
  list
(** Like {!analyse}, but additionally collects each task's busy-window
    completion profile (for busy-window output propagation).  The
    profile is [None] for unbounded outcomes. *)
