(** Machine-readable telemetry export.

    A snapshot captures the process-wide telemetry state at one instant:
    every interned {!Metrics} counter total, every gauge, and a summary
    of every registered {!Hist} histogram (count/min/max/sum plus
    p50/p90/p99 and the non-empty buckets).  Two serialisations:

    - {!to_json}: a deterministic JSON object — keys sorted, fixed
      schema [{"counters": {..}, "gauges": {..}, "histograms": {..}}] —
      so snapshots diff cleanly and bench JSON stays comparable across
      runs;
    - {!to_prometheus}: Prometheus text exposition format (counters and
      gauges as-is, histograms as summaries with p50/p90/p99 quantiles),
      names sanitised to the [[a-zA-Z0-9_:]] alphabet.

    Capturing reads atomics and registry tables only; it does not stop
    recording, so capture after the work being measured (post
    [Domain.join] for worker telemetry). *)

type t

val capture : unit -> t
(** The current counters, gauges, and registered histograms. *)

val to_json_value : t -> Json.t
(** The snapshot as a JSON value, for embedding in a larger document. *)

val to_json : t -> string
(** {!to_json_value} printed by {!Json.to_string}: deterministic,
    self-contained JSON (ends with a newline). *)

val to_prometheus : t -> string
(** Prometheus text exposition format (ends with a newline). *)

val write_json : string -> t -> unit
(** [write_json path t] writes {!to_json} to [path] (truncating). *)

val write_prometheus : string -> t -> unit
