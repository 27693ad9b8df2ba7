type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type attr = string * value

type t =
  | Span_begin of { name : string; ts : float; attrs : attr list }
  | Span_end of { name : string; ts : float; attrs : attr list }
  | Instant of { name : string; ts : float; attrs : attr list }
  | Counter of { name : string; ts : float; value : int }

let name = function
  | Span_begin { name; _ }
  | Span_end { name; _ }
  | Instant { name; _ }
  | Counter { name; _ } ->
    name

let ts = function
  | Span_begin { ts; _ } | Span_end { ts; _ } | Instant { ts; _ }
  | Counter { ts; _ } ->
    ts
