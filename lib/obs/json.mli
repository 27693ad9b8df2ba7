(** The one JSON codec of the repository.

    A minimal self-contained JSON value — the repository deliberately
    carries no external JSON dependency.  Chrome traces, metrics
    snapshots, [sweep --format json], {!Explore.Wire} edit lists and the
    serving protocol all print through {!to_string}, so every JSON
    output shares one string escaper and one number format.

    [to_string] escapes control characters and emits objects in the
    given field order; [of_string] accepts arbitrary whitespace and
    [\uXXXX] escapes (decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, deterministic rendering (no trailing newline).  A finite
    [Float] prints round-trippably ([%.1f] when integral and below
    [1e15], [%.17g] otherwise); infinity and NaN, which JSON cannot
    express, print as [null]. *)

val of_string : string -> (t, string) result
(** Parses one JSON value; trailing garbage after the value is an
    error.  Errors carry a byte offset. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects too. *)

val to_int : t -> int option
(** [Int n] (and integral [Float]) as [Some n]. *)

val to_str : t -> string option
