type format =
  | Json
  | Jsonl

let value = function
  | Event.Str s -> Json.Str s
  | Event.Int i -> Json.Int i
  | Event.Float f -> Json.Float f
  | Event.Bool v -> Json.Bool v

let args attrs = "args", Json.Obj (List.map (fun (k, v) -> k, value v) attrs)

let event_value e =
  let common name ph ts rest =
    Json.Obj
      ([ "name", Json.Str name; "cat", Json.Str "hem"; "ph", Json.Str ph;
         "ts", Json.Float ts; "pid", Json.Int 1; "tid", Json.Int 1 ]
       @ rest)
  in
  match e with
  | Event.Span_begin { name; ts; attrs } -> common name "B" ts [ args attrs ]
  | Event.Span_end { name; ts; attrs } -> common name "E" ts [ args attrs ]
  | Event.Instant { name; ts; attrs } ->
    common name "i" ts [ "s", Json.Str "t"; args attrs ]
  | Event.Counter { name; ts; value } ->
    common name "C" ts [ "args", Json.Obj [ "value", Json.Int value ] ]

let event_json e = Json.to_string (event_value e)

let to_string ?(format = Json) events =
  match format with
  | Json ->
    Json.to_string
      (Json.Obj
         [ "traceEvents", Json.Arr (List.map event_value events);
           "displayTimeUnit", Json.Str "ms" ])
    ^ "\n"
  | Jsonl -> String.concat "" (List.map (fun e -> event_json e ^ "\n") events)

let file ?format path =
  let format =
    match format with
    | Some f -> f
    | None -> if Filename.check_suffix path ".jsonl" then Jsonl else Json
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let flush () =
    let oc = open_out path in
    output_string oc (to_string ~format (List.rev !events));
    close_out oc
  in
  Sink.make ~flush emit
