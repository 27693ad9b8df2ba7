(** Earliest-deadline-first schedulability analysis.

    Processor-demand criterion generalized to arbitrary activation event
    streams: the demand that must complete inside any window of size
    [dt] is [sum_i C+_i * eta_plus_i (dt - D_i + 1)]; the task set is
    schedulable iff the demand never exceeds the window, checked up to
    the length of the longest busy period.  A schedulable task's
    response time is bounded by its relative deadline. *)

type task = {
  task : Rt_task.t;
  deadline : int;  (** relative deadline, >= 1 *)
}

val demand_bound : task list -> int -> (int, string) result
(** [demand_bound tasks dt]: cumulated demand with absolute deadline
    inside a window of size [dt]; [Error] on unbounded arrivals. *)

val busy_period : task list -> (int, string) result
(** Length of the longest processor busy period (least fixed point of
    the total-demand equation); [Error] on overload. *)

val schedulable : task list -> (unit, string) result
(** [Ok ()] iff the demand-bound test passes for every window size up to
    the busy period. *)

val analyse : task list -> (Rt_task.t * Busy_window.outcome) list
(** [Bounded [C- : D_i]] for every task of a schedulable set — EDF
    guarantees completion by the deadline — and [Unbounded] for every
    task otherwise. *)
