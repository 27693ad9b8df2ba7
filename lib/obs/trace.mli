(** Span and counter emission API for instrumented code.

    All functions are no-ops (one ref read, no allocation) when no sink is
    installed.  Call sites that build attribute lists should still guard
    with {!enabled} so the list is not allocated on the disabled path:

    {[
      let run () = ...hot code... in
      if Obs.Trace.enabled () then
        Obs.Trace.with_span "busy_window"
          ~attrs:[ "element", Obs.Event.Str name ]
          ~end_attrs:(fun () -> [ "q_max", Obs.Event.Int !q ])
          run
      else run ()
    ]} *)

val enabled : unit -> bool
(** Same as {!Sink.enabled}. *)

val now_us : unit -> float
(** Monotonic timestamp in microseconds: the pluggable clock (default
    {!Clock.now_us}) clamped to be non-decreasing. *)

val set_clock : (unit -> float) -> unit
(** Replaces the clock; the replacement must return microseconds.
    Useful for deterministic tests. *)

val span_begin : ?attrs:Event.attr list -> string -> unit
val span_end : ?attrs:Event.attr list -> string -> unit

val with_span :
  ?attrs:Event.attr list ->
  ?end_attrs:(unit -> Event.attr list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] emits a begin event, runs [f], and emits the
    matching end event (also on exceptions).  [end_attrs] is evaluated
    after [f] so the end event can carry results computed inside the span.
    When no sink is installed, [f] is called directly. *)

val instant : ?attrs:Event.attr list -> string -> unit
(** Point event; only emitted at sink level {!Sink.Full}. *)

val counter : string -> int -> unit
(** Counter sample; only emitted at sink level {!Sink.Full}. *)
