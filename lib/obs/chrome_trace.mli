(** Chrome [trace_event] exporter.

    Serializes {!Event.t} streams into the JSON trace format understood by
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}: span
    begin/end map to ["B"]/["E"] duration events, instants to ["i"], and
    counter samples to ["C"] (rendered as a value track).

    Two output shapes are supported: {!Json} is the standard
    [{"traceEvents": [...]}] object; {!Jsonl} writes one event object per
    line (newline-delimited JSON, convenient for streaming and for
    [grep]-based post-processing; Perfetto accepts it as well).  Events
    are built as {!Obs.Json.t} values and printed by
    {!Obs.Json.to_string}, so a non-finite float attribute prints as
    [null]. *)

type format =
  | Json
  | Jsonl

val event_json : Event.t -> string
(** One event as a self-contained JSON object (no trailing newline). *)

val to_string : ?format:format -> Event.t list -> string
(** Serializes a complete trace. *)

val file : ?format:format -> string -> Sink.t
(** [file path] is a sink that records every event and writes the complete
    trace to [path] on [flush] (truncating; flushing repeatedly rewrites
    the file with the events seen so far).  The default {!format} is
    chosen from the file extension: [.jsonl] selects {!Jsonl}, anything
    else {!Json}. *)
