(** TDMA response-time analysis.

    Each task owns a slot of fixed length inside a fixed cycle; the
    service available to a task in a window of length [w] is bounded below
    by the worst alignment, in which the window opens just after the
    task's slot closed.  TDMA isolates tasks from each other, so the
    analysis needs no interference terms — only the service bound. *)

type slot = {
  task : Rt_task.t;
  length : int;  (** slot length, >= 1 *)
}

val cycle_length : slot list -> int

val service : slot:int -> cycle:int -> int -> int
(** [service ~slot ~cycle w]: guaranteed service inside any window of
    length [w] for a slot of length [slot] in a cycle of length [cycle]
    (worst-case alignment). *)

val response_time :
  slots:slot list -> task:Rt_task.t -> unit -> Busy_window.outcome
(** @raise Invalid_argument if [task] owns no slot in [slots]. *)

val analyse : slot list -> (Rt_task.t * Busy_window.outcome) list
