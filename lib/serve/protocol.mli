(** Wire protocol of the serving daemon.

    {b Framing.}  Each message is one frame:
    [<decimal byte length>\n<payload>\n], where the payload is a single
    JSON value ({!Obs.Json}, the one codec of the repository).  The
    length counts payload bytes only (not the two newlines) and is
    bounded by [max_frame]; an oversized announcement or a malformed
    header is unrecoverable for the connection (the stream position is
    lost), so peers reply with a fault and drop the connection.

    {b Requests.}  An envelope
    [{"id":N,"op":"...","deadline-ms":..?,"budget":..?,...}] carrying
    one {!op}.  [id] is echoed verbatim in the reply; deadline/budget
    become the per-request {!Guard} token limits.

    {b Replies.}  [{"id":N,"status":S,"error":{..}?,"body":{..}?}].
    The status codes deliberately mirror the CLI exit-code contract of
    {!Guard.Error.exit_code}: [0] success, [1] fault (invalid spec,
    parse failure, unknown session, protocol violation), [3] degraded
    (deadline / budget / divergence — the body still carries the sound
    degraded result when one exists), [4] cancelled (including admission
    rejections and drain). *)

module Json = Obs.Json

(** {1 Status codes} *)

type status =
  | Success  (** 0 *)
  | Fault  (** 1 — fault-class {!Guard.Error.t}, protocol violations *)
  | Degraded  (** 3 — interrupt-class degradations and divergence *)
  | Cancelled  (** 4 — cancellation, admission rejection, drain *)

val status_code : status -> int
val status_of_code : int -> status option
val status_name : status -> string

val status_of_error : Guard.Error.t -> status
(** The protocol status a structured error maps onto — same partition
    as {!Guard.Error.exit_code}. *)

(** {1 Requests} *)

type op =
  | Load of { spec_text : string; mode : string option }
      (** upload a textual spec, open a session (mode defaults to the
          server's) *)
  | Edit of { session : string; edits : Explore.Space.edit list }
      (** apply an edit list to the warm session, get the delta back *)
  | Analyse of { session : string }
      (** full outcomes of the session's current system *)
  | Metrics of { session : string }
      (** per-session counters plus a process telemetry snapshot *)
  | Close of { session : string }
  | Ping
  | Shutdown  (** ask the daemon to drain and exit *)

type request = {
  req_id : int;
  deadline_ms : float option;
  budget : int option;
  op : op;
}

val request : ?deadline_ms:float -> ?budget:int -> id:int -> op -> request

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result

(** {1 Replies} *)

type reply = {
  rep_id : int;
  status : status;
  error : (Guard.Error.t * string) option;
      (** structured reason + human-readable message *)
  body : Json.t;  (** [Null] when there is none *)
}

val ok : id:int -> Json.t -> reply

val fail : ?body:Json.t -> ?message:string -> id:int -> Guard.Error.t -> reply
(** Status from {!status_of_error}; [message] defaults to
    [Guard.Error.to_string]. *)

val reply_to_json : reply -> Json.t
val reply_of_json : Json.t -> (reply, string) result

val error_to_json : message:string -> Guard.Error.t -> Json.t
val error_of_json : Json.t -> (Guard.Error.t * string, string) result

(** {1 Framing} *)

val default_max_frame : int
(** 1 MiB. *)

type frame_error =
  | Closed  (** peer closed the stream at a frame boundary *)
  | Oversized of int  (** announced length exceeded [max_frame] *)
  | Malformed of string
      (** header or trailer violation, or EOF mid-frame; the stream
          position is unrecoverable *)

val frame_error_to_string : frame_error -> string

type reader
(** Buffered frame reader over a file descriptor (one per connection —
    not thread-safe). *)

val reader : Unix.file_descr -> reader

val read_frame : ?max_frame:int -> reader -> (string, frame_error) result
(** Blocks until one full frame (or an error) is available. *)

val write_frame : Unix.file_descr -> string -> unit
(** Writes one frame; raises [Unix.Unix_error] on a broken pipe. *)
