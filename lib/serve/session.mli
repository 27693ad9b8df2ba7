(** Session table of the serving daemon.

    A session is one loaded system with its warm {!Cpa_system.Engine}
    resolution context, its edit count, and a private {!Obs.Metrics}
    scope that every request executed on its behalf runs under.  The
    warm context is the session's only analysis cache: it holds the
    converged fixed point, so an [analyse] of an unedited session is a
    read-back.  Sessions are pinned to one {!Explore.Pool.Service}
    worker ([worker = hash id mod jobs]): the warm context's cached
    streams carry unsynchronised curve memo tables, so all analysis
    state of a session must only ever be touched from its worker's
    domain.  The table itself (registration, checkout, eviction) is
    mutex-protected and may be used from any thread.

    Analysis fields ([spec], [warm], [last_outcomes]) are written
    exclusively by worker jobs; the happens-before edge to later jobs of
    the same session is the worker mailbox.  A session leaving the table
    takes all of its state with it. *)

module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec

type t = {
  id : string;
  worker : int;  (** pinned {!Explore.Pool.Service} worker index *)
  scope : Obs.Metrics.scope;  (** per-session accumulation cell set *)
  mutable edit_count : int;
      (** edits applied since [load]; the edits themselves are folded
          into [spec] and not kept *)
  mutable spec : Spec.t;  (** current system (worker-domain owned) *)
  mutable warm : Engine.warm option;  (** [None] until [load] finishes *)
  mutable last_outcomes : Engine.element_outcome list;
  mutable last_used : float;  (** [Unix.gettimeofday] of last dispatch *)
  mutable inflight : int;  (** dispatched, not yet completed requests *)
  mutable requests : int;  (** requests ever dispatched *)
}

type table

val table : max_sessions:int -> jobs:int -> unit -> table

val register : table -> spec:Spec.t -> (t, string) result
(** Creates a session (fresh id, worker pin, scope) and inserts it,
    evicting the least-recently-used idle session if the table is full;
    [Error] when every session is busy and nothing can be evicted.  The
    session comes back checked out, as by {!checkout} and in the same
    critical section, so no concurrent [register] can evict it before
    the caller dispatches its warming job; pair it with one {!checkin}. *)

val checkout : table -> string -> t option
(** Looks a session up, marking it busy ([inflight + 1]) and touching
    [last_used] — call when dispatching a request, and pair each
    checkout with exactly one {!checkin}.  [None] when the id is
    unknown. *)

val checkin : table -> t -> unit

val remove : table -> string -> unit
(** Drops the session from the table (its warm state is garbage); a
    no-op when the id is unknown. *)

val count : table -> int

val evictions : table -> int
(** Sessions evicted by LRU pressure since the table was created. *)
