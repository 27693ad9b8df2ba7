(** Shared machinery of the busy-window technique (Lehoczky).

    Local analyses compute, per activation index [q], the completion time
    of the q-th activation within the critical-instant busy period, via a
    least-fixed-point iteration over a monotone window equation; the
    worst-case response time is the maximum over all activations inside
    the busy period. *)

type outcome =
  | Bounded of Timebase.Interval.t
      (** best-/worst-case response times [\[r-:r+\]] *)
  | Unbounded of string
      (** no bound below the divergence limits (overload), with reason *)

val pp_outcome : Format.formatter -> outcome -> unit

val response_interval : outcome -> Timebase.Interval.t option

val default_window_limit : int
(** Cap on busy-window length before declaring divergence (1_000_000).
    Every local analysis uses it; a busy period is also cut after 4096
    activations. *)

val fixpoint : limit:int -> init:int -> (int -> int) -> int option
(** [fixpoint ~limit ~init f] is the least fixed point of the monotone
    function [f] reached by iterating from [init]; [None] if the iterate
    exceeds [limit].
    @raise Invalid_argument if an iterate decreases (non-monotone [f]). *)

val max_response :
  ?label:string ->
  ?record:(q:int -> arr:int -> fin:int -> unit) ->
  best_case:int ->
  arrival:(int -> Timebase.Time.t) ->
  finish:(int -> int option) ->
  unit ->
  outcome
(** [max_response ~best_case ~arrival ~finish ()] runs the busy-period
    enumeration: for [q = 1, 2, ...], [finish q] is the absolute
    completion time of the q-th activation ([None] = divergent window),
    [arrival q] its earliest arrival (the activation stream's
    [delta_min q]).  The enumeration stops at the first [q] whose
    completion does not overlap the arrival of activation [q + 1].
    Returns [Bounded [best_case : max_q (finish q - arrival q)]], or
    [Unbounded] when a window diverges or the busy period exceeds 4096
    activations.

    [record], when given, is called once per explored activation with
    its index [q], earliest arrival [arr] and worst-case completion
    [fin] (both relative to the busy-window start) — the per-activation
    completion profile consumed by busy-window output propagation
    ({!Event_model.Propagation}).  It observes exactly the activations
    of the returned bound, in increasing [q].

    When a tracing sink is installed, the computation is wrapped in a
    ["busy_window"] span labelled with [label] (the element name) and
    attributed with the explored q-range and fixpoint work; with no sink
    the span layer is skipped entirely. *)

val profile_collector :
  unit ->
  (q:int -> arr:int -> fin:int -> unit)
  * (unit -> Event_model.Propagation.profile option)
(** [profile_collector ()] is a [(record, get)] pair: pass [record] to
    {!max_response} and call [get ()] afterwards to obtain the collected
    busy-window completion profile ([None] when no activation was
    explored).  Only meaningful when the enumeration returned [Bounded]
    — a divergent window leaves a partial, unusable profile. *)

val backlog :
  Rt_task.t ->
  ((q:int -> arr:int -> fin:int -> unit) -> outcome) ->
  (int, string) result
(** [backlog task run] bounds the number of simultaneously pending
    activations of [task] (the activation buffer it needs).  [run record]
    must run [task]'s {!max_response} enumeration with [record].  While
    the q-th activation is in service at most [eta_plus (finish q) - (q - 1)]
    activations are pending, so the bound is the maximum of that over the
    busy period, and at least 1.  The first unbounded [eta_plus] stops the
    enumeration and is the error; otherwise an [Unbounded] outcome's
    reason is. *)

val per_task :
  profiled:bool ->
  (?record:(q:int -> arr:int -> fin:int -> unit) ->
   task:Rt_task.t ->
   others:Rt_task.t list ->
   unit ->
   outcome) ->
  Rt_task.t list ->
  (Rt_task.t * outcome * Event_model.Propagation.profile option) list
(** [per_task ~profiled response_time tasks] runs [response_time] for
    every task of a resource against the others, in list order.  With
    [profiled], each task's completion profile is collected
    ({!profile_collector}; [None] for unbounded outcomes); without it no
    collector is made and every profile is [None]. *)

(** SoA interference kernel with resumable arrival searches.

    One [Demand.t] snapshots a task set (activation curves and [C+]
    values, structure-of-arrays) and serves arrival-demand queries for
    the convergence loop of one local analysis.  Each task carries a
    search hint that resumes the eta_plus pseudo-inversion where the
    previous query ended; this is only sound when the query windows for
    a given task never decrease over the kernel's lifetime — which holds
    in busy-window fixpoints (windows grow within an iteration and, with
    warm-started fixpoints, across activation indices [q]) and in EDF
    demand scans (windows grow with [dt]).  Build a fresh kernel per
    analysed task; do not share one across analyses or domains. *)
module Demand : sig
  type t

  val make : Rt_task.t list -> t
  (** Snapshot the task set in list order. *)

  val size : t -> int

  val name : t -> int -> string
  (** Name of the i-th task (error reporting). *)

  val count : t -> i:int -> window:int -> int
  (** Arrival count [eta_plus_i window] of the i-th task, or [-1] when
      it is unbounded.  [0] when [window <= 0].  Windows passed for a
      given [i] must be non-decreasing across calls. *)

  val eval : t -> window:int -> (int, int) result
  (** Total demand [sum_i count i * C+_i] over a uniform window, or
      [Error i] for the first task with unbounded arrivals. *)
end

val interference :
  tasks:Rt_task.t list -> window:int -> (int, string) result
(** [interference ~tasks ~window] is the cumulated worst-case demand
    [sum_j eta_plus_j window * C+_j] of [tasks] in a window; [Error] if
    some arrival count is unbounded. *)

val higher_priority : than:Rt_task.t -> Rt_task.t list -> Rt_task.t list
(** Tasks with priority strictly smaller or equal (but not the task
    itself, compared physically) — equal priorities are conservatively
    treated as interference. *)

val lower_priority : than:Rt_task.t -> Rt_task.t list -> Rt_task.t list
(** Tasks with strictly larger priority value. *)

(** {1 Observability} *)

type counters = {
  busy_windows : int;  (** {!max_response} invocations *)
  window_iterations : int;  (** {!fixpoint} steps *)
  activations : int;  (** busy-period activation indices explored *)
  demand_evals : int;  (** {!Demand.eval} kernel sweeps *)
  demand_probes : int;  (** per-task curve probes inside the kernel *)
}

val counters : unit -> counters
(** Process-global monotone totals (registry counters [busy_window.*]). *)

val counters_in : Obs.Metrics.scope -> counters
(** Busy-window work charged to one metrics scope. *)

val counters_diff : counters -> counters -> counters
(** [counters_diff a b] is the per-field difference [a - b]. *)
