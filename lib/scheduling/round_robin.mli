(** Round-robin response-time analysis.

    Tasks share the resource in rounds; each backlogged task receives up
    to its quantum per round.  The interference another task can inflict
    during the processing of [q] own activations is bounded both by that
    task's own demand ([eta_plus * C+]) and by its quantum times the
    number of rounds the own demand needs — whichever is smaller (Racu's
    round-robin bound for compositional analysis). *)

type share = {
  task : Rt_task.t;
  quantum : int;  (** per-round service quantum, >= 1 *)
}

val response_time :
  shares:share list -> task:Rt_task.t -> unit -> Busy_window.outcome
(** @raise Invalid_argument if [task] has no share in [shares]. *)

val analyse : share list -> (Rt_task.t * Busy_window.outcome) list
