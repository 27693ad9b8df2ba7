(** Structured observability events.

    An event is what instrumented code hands to the installed {!Sink}: the
    begin/end markers of a hierarchical span, a point-in-time instant, or a
    counter sample.  Timestamps are monotonic microseconds as produced by
    {!Trace.now_us}; attributes are flat key/value pairs. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type attr = string * value

type t =
  | Span_begin of { name : string; ts : float; attrs : attr list }
  | Span_end of { name : string; ts : float; attrs : attr list }
      (** Closes the innermost open span of the same [name]; well-formed
          event sequences nest spans strictly (emitted via
          {!Trace.with_span}). *)
  | Instant of { name : string; ts : float; attrs : attr list }
  | Counter of { name : string; ts : float; value : int }

val name : t -> string
val ts : t -> float
