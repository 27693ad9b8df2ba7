(** Output event-stream calculation for analysed tasks (the operation
    called Theta_tau in the paper, section 3).

    Once local analysis has produced the response-time interval
    [\[r-:r+\]] of a task, the timing of its output stream follows from the
    input stream:

    - [delta_min' n = max (delta_min n - (r+ - r-)) (delta_min' (n-1) + r-)]
    - [delta_plus' n = delta_plus n + (r+ - r-)]

    Both curves are compact periodic ({!Curve.periodic_tail}) when the
    input's curve is and the certificate is found below a cap; otherwise
    they are packed tables ({!Curve.table}) with the same values. *)

val output : ?name:string -> response:Timebase.Interval.t -> Stream.t -> Stream.t
(** [output ~response stream] is the output stream of a task with
    response-time interval [response] processing [stream]. *)

val delta_min : response:Timebase.Interval.t -> Stream.t -> Curve.t
(** The [delta_min'] curve of {!output}: the recurrence above, certified
    compact by {!Curve.periodic_from} when the input's [delta_min] is
    compact. *)

val delta_plus : spread:int -> Stream.t -> Curve.t
(** [delta_plus ~spread stream] is [delta_plus n + spread] (with
    [Inf + spread = Inf]): the [delta_plus'] curve of {!output} for
    [spread = r+ - r-], shared by every propagation mode.  Compact when
    the input's [delta_plus] is. *)
