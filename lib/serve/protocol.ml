module Json = Obs.Json
module Wire = Explore.Wire

(* ------------------------------------------------------------------ *)
(* Status codes *)

type status =
  | Success
  | Fault
  | Degraded
  | Cancelled

let status_code = function
  | Success -> 0
  | Fault -> 1
  | Degraded -> 3
  | Cancelled -> 4

let status_of_code = function
  | 0 -> Some Success
  | 1 -> Some Fault
  | 3 -> Some Degraded
  | 4 -> Some Cancelled
  | _ -> None

let status_name = function
  | Success -> "ok"
  | Fault -> "fault"
  | Degraded -> "degraded"
  | Cancelled -> "cancelled"

(* Same partition as Guard.Error.exit_code: the daemon's status codes
   and the CLI's exit codes are one taxonomy. *)
let status_of_error (e : Guard.Error.t) =
  match e with
  | Guard.Error.Cancelled -> Cancelled
  | Guard.Error.Deadline_exceeded _ | Guard.Error.Budget_exhausted _
  | Guard.Error.Diverged _ -> Degraded
  | Guard.Error.Cycle _ | Guard.Error.Invalid_spec _
  | Guard.Error.Parse_failure _ | Guard.Error.Injected _ -> Fault

(* ------------------------------------------------------------------ *)
(* Structured errors *)

let error_to_json ~message (e : Guard.Error.t) =
  let fields =
    match e with
    | Guard.Error.Cancelled -> [ "kind", Json.Str "cancelled" ]
    | Guard.Error.Deadline_exceeded { deadline_ms } ->
      [ "kind", Json.Str "deadline-exceeded";
        "deadline-ms", Json.Float deadline_ms ]
    | Guard.Error.Budget_exhausted { budget } ->
      [ "kind", Json.Str "budget-exhausted"; "budget", Json.Int budget ]
    | Guard.Error.Diverged { iterations } ->
      [ "kind", Json.Str "diverged"; "iterations", Json.Int iterations ]
    | Guard.Error.Cycle { element } ->
      [ "kind", Json.Str "cycle"; "element", Json.Str element ]
    | Guard.Error.Invalid_spec { reason } ->
      [ "kind", Json.Str "invalid-spec"; "reason", Json.Str reason ]
    | Guard.Error.Parse_failure { reason } ->
      [ "kind", Json.Str "parse-failure"; "reason", Json.Str reason ]
    | Guard.Error.Injected { site } ->
      [ "kind", Json.Str "injected"; "site", Json.Str site ]
  in
  Json.Obj (fields @ [ "message", Json.Str message ])

let error_of_json j =
  let str key = Option.bind (Json.member key j) Json.to_str in
  let int key = Option.bind (Json.member key j) Json.to_int in
  let flt key =
    match Json.member key j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  let message = Option.value (str "message") ~default:"" in
  let req what = Error (Printf.sprintf "error: missing %S" what) in
  match str "kind" with
  | None -> Error "error: missing \"kind\""
  | Some "cancelled" -> Ok (Guard.Error.Cancelled, message)
  | Some "deadline-exceeded" -> begin
    match flt "deadline-ms" with
    | Some deadline_ms ->
      Ok (Guard.Error.Deadline_exceeded { deadline_ms }, message)
    | None -> req "deadline-ms"
  end
  | Some "budget-exhausted" -> begin
    match int "budget" with
    | Some budget -> Ok (Guard.Error.Budget_exhausted { budget }, message)
    | None -> req "budget"
  end
  | Some "diverged" -> begin
    match int "iterations" with
    | Some iterations -> Ok (Guard.Error.Diverged { iterations }, message)
    | None -> req "iterations"
  end
  | Some "cycle" -> begin
    match str "element" with
    | Some element -> Ok (Guard.Error.Cycle { element }, message)
    | None -> req "element"
  end
  | Some "invalid-spec" -> begin
    match str "reason" with
    | Some reason -> Ok (Guard.Error.Invalid_spec { reason }, message)
    | None -> req "reason"
  end
  | Some "parse-failure" -> begin
    match str "reason" with
    | Some reason -> Ok (Guard.Error.Parse_failure { reason }, message)
    | None -> req "reason"
  end
  | Some "injected" -> begin
    match str "site" with
    | Some site -> Ok (Guard.Error.Injected { site }, message)
    | None -> req "site"
  end
  | Some other -> Error (Printf.sprintf "error: unknown kind %S" other)

(* ------------------------------------------------------------------ *)
(* Requests *)

type op =
  | Load of { spec_text : string; mode : string option }
  | Edit of { session : string; edits : Explore.Space.edit list }
  | Analyse of { session : string }
  | Metrics of { session : string }
  | Close of { session : string }
  | Ping
  | Shutdown

type request = {
  req_id : int;
  deadline_ms : float option;
  budget : int option;
  op : op;
}

let request ?deadline_ms ?budget ~id op =
  { req_id = id; deadline_ms; budget; op }

let op_fields = function
  | Load { spec_text; mode } ->
    ("op", Json.Str "load")
    :: ("spec", Json.Str spec_text)
    :: (match mode with
        | Some m -> [ "mode", Json.Str m ]
        | None -> [])
  | Edit { session; edits } ->
    [ "op", Json.Str "edit"; "session", Json.Str session;
      "edits", Wire.edits_to_json edits ]
  | Analyse { session } ->
    [ "op", Json.Str "analyse"; "session", Json.Str session ]
  | Metrics { session } ->
    [ "op", Json.Str "metrics"; "session", Json.Str session ]
  | Close { session } ->
    [ "op", Json.Str "close"; "session", Json.Str session ]
  | Ping -> [ "op", Json.Str "ping" ]
  | Shutdown -> [ "op", Json.Str "shutdown" ]

let request_to_json r =
  let limits =
    (match r.deadline_ms with
     | Some d -> [ "deadline-ms", Json.Float d ]
     | None -> [])
    @ match r.budget with
      | Some b -> [ "budget", Json.Int b ]
      | None -> []
  in
  Json.Obj ((("id", Json.Int r.req_id) :: op_fields r.op) @ limits)

let request_of_json j =
  let str key = Option.bind (Json.member key j) Json.to_str in
  let session kind k =
    match str "session" with
    | Some s -> Ok (k s)
    | None -> Error (kind ^ ": missing \"session\"")
  in
  let op =
    match str "op" with
    | None -> Error "request: missing \"op\""
    | Some "load" -> begin
      match str "spec" with
      | Some spec_text -> Ok (Load { spec_text; mode = str "mode" })
      | None -> Error "load: missing \"spec\""
    end
    | Some "edit" -> begin
      match str "session" with
      | None -> Error "edit: missing \"session\""
      | Some session -> begin
        match Json.member "edits" j with
        | None -> Error "edit: missing \"edits\""
        | Some ej -> begin
          match Wire.edits_of_json ej with
          | Ok edits -> Ok (Edit { session; edits })
          | Error e -> Error e
        end
      end
    end
    | Some "analyse" -> session "analyse" (fun s -> Analyse { session = s })
    | Some "metrics" -> session "metrics" (fun s -> Metrics { session = s })
    | Some "close" -> session "close" (fun s -> Close { session = s })
    | Some "ping" -> Ok Ping
    | Some "shutdown" -> Ok Shutdown
    | Some other -> Error (Printf.sprintf "request: unknown op %S" other)
  in
  match op with
  | Error e -> Error e
  | Ok op ->
    let req_id =
      Option.value (Option.bind (Json.member "id" j) Json.to_int) ~default:0
    in
    let deadline_ms =
      match Json.member "deadline-ms" j with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int n) -> Some (float_of_int n)
      | _ -> None
    in
    let budget = Option.bind (Json.member "budget" j) Json.to_int in
    Ok { req_id; deadline_ms; budget; op }

(* ------------------------------------------------------------------ *)
(* Replies *)

type reply = {
  rep_id : int;
  status : status;
  error : (Guard.Error.t * string) option;
  body : Json.t;
}

let ok ~id body = { rep_id = id; status = Success; error = None; body }

let fail ?(body = Json.Null) ?message ~id err =
  let message =
    match message with Some m -> m | None -> Guard.Error.to_string err
  in
  { rep_id = id; status = status_of_error err; error = Some (err, message);
    body }

let reply_to_json r =
  let fields =
    [ "id", Json.Int r.rep_id;
      "status", Json.Int (status_code r.status) ]
  in
  let fields =
    match r.error with
    | Some (err, message) ->
      fields @ [ "error", error_to_json ~message err ]
    | None -> fields
  in
  let fields =
    match r.body with Json.Null -> fields | b -> fields @ [ "body", b ]
  in
  Json.Obj fields

let reply_of_json j =
  match Option.bind (Json.member "status" j) Json.to_int with
  | None -> Error "reply: missing \"status\""
  | Some code -> begin
    match status_of_code code with
    | None -> Error (Printf.sprintf "reply: unknown status %d" code)
    | Some status -> begin
      let rep_id =
        Option.value
          (Option.bind (Json.member "id" j) Json.to_int)
          ~default:0
      in
      let body = Option.value (Json.member "body" j) ~default:Json.Null in
      match Json.member "error" j with
      | None -> Ok { rep_id; status; error = None; body }
      | Some ej -> begin
        match error_of_json ej with
        | Ok (err, message) ->
          Ok { rep_id; status; error = Some (err, message); body }
        | Error e -> Error e
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Framing *)

let default_max_frame = 1 lsl 20

type frame_error =
  | Closed
  | Oversized of int
  | Malformed of string

let frame_error_to_string = function
  | Closed -> "connection closed"
  | Oversized n -> Printf.sprintf "frame of %d bytes exceeds the limit" n
  | Malformed reason -> "malformed frame: " ^ reason

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

(* -1 on EOF.  Unix_error escapes to the caller's handler. *)
let read_byte r =
  if r.pos >= r.len then begin
    r.pos <- 0;
    r.len <- Unix.read r.fd r.buf 0 (Bytes.length r.buf)
  end;
  if r.len <= 0 then -1
  else begin
    let b = Char.code (Bytes.get r.buf r.pos) in
    r.pos <- r.pos + 1;
    b
  end

let read_frame ?(max_frame = default_max_frame) r =
  (* header: decimal digits, at most 10, terminated by '\n' *)
  let rec header acc digits =
    if digits > 10 then Error (Malformed "oversized length header")
    else
      match read_byte r with
      | -1 -> if digits = 0 then Error Closed else Error (Malformed "eof in header")
      | 10 (* '\n' *) ->
        if digits = 0 then Error (Malformed "empty length header")
        else Ok acc
      | b when b >= Char.code '0' && b <= Char.code '9' ->
        header ((acc * 10) + (b - Char.code '0')) (digits + 1)
      | b ->
        Error
          (Malformed (Printf.sprintf "unexpected byte %d in length header" b))
  in
  match header 0 0 with
  | Error e -> Error e
  | Ok n when n > max_frame -> Error (Oversized n)
  | Ok n -> begin
    let payload = Bytes.create n in
    let rec fill off =
      if off >= n then true
      else begin
        (* drain the reader's buffer first, then read straight in *)
        if r.pos < r.len then begin
          let take = Stdlib.min (n - off) (r.len - r.pos) in
          Bytes.blit r.buf r.pos payload off take;
          r.pos <- r.pos + take;
          fill (off + take)
        end
        else begin
          let got = Unix.read r.fd payload off (n - off) in
          if got <= 0 then false else fill (off + got)
        end
      end
    in
    if not (fill 0) then Error (Malformed "eof in payload")
    else
      match read_byte r with
      | 10 -> Ok (Bytes.unsafe_to_string payload)
      | -1 -> Error (Malformed "eof at frame trailer")
      | b ->
        Error (Malformed (Printf.sprintf "expected newline trailer, got %d" b))
  end

let write_frame fd payload =
  let msg =
    Printf.sprintf "%d\n%s\n" (String.length payload) payload
  in
  let n = String.length msg in
  let rec push off =
    if off < n then begin
      let sent = Unix.write_substring fd msg off (n - off) in
      push (off + sent)
    end
  in
  push 0
