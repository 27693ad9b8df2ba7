(** The library's one time source: [CLOCK_MONOTONIC] in nanoseconds
    (bechamel's [Monotonic_clock]), so timings are immune to wall-clock
    steps and fine enough for sub-microsecond spans.  Its origin is
    arbitrary: only differences are meaningful. *)

val now_ns : unit -> int64

val now_us : unit -> float
(** {!now_ns} in microseconds. *)
