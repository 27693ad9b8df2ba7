(** Trace exporters.

    Renders simulation traces into standard formats: VCD (value change
    dump, viewable in GTKWave and friends) for event streams, and CSV for
    spreadsheet post-processing. *)

val vcd : ?timescale:string -> Trace.t -> streams:string list -> string
(** [vcd trace ~streams] renders the arrival instants of the named
    streams as one-tick pulses on wire signals.  [timescale] defaults to
    ["1us"].  Unknown streams render as silent wires. *)

val arrivals_csv : Trace.t -> streams:string list -> string
(** One row per arrival: [stream,time], sorted by time then stream
    order. *)

val responses_csv : Trace.t -> elements:string list -> string
(** One row per completed instance: [element,activation,completion,response]. *)

val gantt :
  ?from_time:int -> ?width:int -> Trace.t -> elements:string list -> string
(** ASCII Gantt chart of the recorded execution segments: one row per
    element, ['#'] where it executes, ['.'] where it is idle; the window
    starts at [from_time] (default 0) and spans [width] time units
    (default 100, one column per unit). *)

