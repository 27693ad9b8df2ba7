(** The serving daemon: accept loop, request dispatch, graceful drain.

    {b Threading model.}  The calling thread runs the accept loop (a
    [select] over the listeners and a self-pipe).  Each connection gets
    one systhread that reads frames, dispatches analysis work to the
    session's pinned {!Explore.Pool.Service} worker domain, blocks on
    the result slot, and writes the reply.  All analysis state of a
    session is touched only on its pinned worker (see {!Session}).

    {b Admission control.}  A request is rejected with protocol status
    [4] (cancelled) when its worker's mailbox is deeper than
    [max_queue], when the table cannot host another session, or when
    the daemon is draining.  Accepted requests run under a per-request
    {!Guard} token built from the request's [deadline-ms]/[budget]
    fields (falling back to the server defaults); a tripped token
    degrades the analysis and the reply carries status [3] plus the
    structured reason.

    {b One cache per session.}  A session's warm {!Engine} context is
    its only analysis cache.  [analyse] on a converged session reads the
    fixed point back; after a degraded or overloaded run it rebuilds
    under the request's guard.  Nothing is shared between sessions, so
    an evicted or closed session leaves no state behind.

    {b Drain.}  On SIGTERM / SIGINT / a [shutdown] request the daemon
    stops accepting, rejects new requests, lets in-flight work finish —
    cancelling the stragglers' guards after [drain_ms] — shuts down the
    worker service, closes the connections, joins the threads, and
    {!run} returns [()], so the process exits 0. *)

module Engine = Cpa_system.Engine

type config = {
  unix_path : string option;  (** Unix-domain listener path *)
  tcp : (string * int) option;  (** TCP listener (host, port) *)
  jobs : int;  (** worker-domain request (clamped to cores) *)
  mode : Engine.mode;  (** analysis mode of new sessions *)
  propagation : Event_model.Propagation.mode option;
      (** when set, overrides the spec-wide default propagation mode of
          every loaded system (per-task overrides in the spec file keep
          precedence, as always) *)
  max_sessions : int;
  max_frame : int;  (** frame payload byte limit *)
  max_queue : int;  (** per-worker mailbox admission depth *)
  default_deadline_ms : float option;
  default_budget : int option;
  drain_ms : float;  (** in-flight grace period on shutdown *)
}

val config :
  ?unix_path:string ->
  ?tcp:string * int ->
  ?jobs:int ->
  ?mode:Engine.mode ->
  ?propagation:Event_model.Propagation.mode ->
  ?max_sessions:int ->
  ?max_frame:int ->
  ?max_queue:int ->
  ?default_deadline_ms:float ->
  ?default_budget:int ->
  ?drain_ms:float ->
  unit ->
  config
(** Defaults: no listeners (callers must pass at least one), jobs =
    {!Explore.Pool.default_jobs}, mode hierarchical, 64 sessions, 1 MiB
    frames, queue depth 64, no default deadline/budget, 5000 ms drain. *)

val run : config -> unit
(** Binds the listeners and serves until a shutdown trigger, then
    drains and returns.  @raise Invalid_argument when no listener is
    configured; [Unix.Unix_error] from binding escapes to the caller. *)
