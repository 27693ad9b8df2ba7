(** Session table of the serving daemon.

    A session is one loaded system with its warm {!Cpa_system.Engine}
    resolution context, its accumulated edit history, and a private
    {!Obs.Metrics} scope that every request executed on its behalf runs
    under.  Sessions are pinned to one {!Explore.Pool.Service} worker
    ([worker = hash id mod jobs]): the warm context's cached streams
    carry unsynchronised curve memo tables, so all analysis state of a
    session must only ever be touched from its worker's domain.  The
    table itself (registration, lookup, eviction) is mutex-protected
    and may be used from any thread.

    Analysis fields ([spec], [warm], [last_outcomes], [digest]) are
    written exclusively by worker jobs; the happens-before edge to later
    jobs of the same session is the worker mailbox. *)

module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file

type t = {
  id : string;
  worker : int;  (** pinned {!Explore.Pool.Service} worker index *)
  scope : Obs.Metrics.scope;  (** per-session accumulation cell set *)
  base : Spec_file.t;  (** the uploaded description (pure data) *)
  mutable edit_count : int;
      (** edits applied since [load]; the edits themselves are folded
          into [spec] and not kept *)
  mutable spec : Spec.t;  (** current system (worker-domain owned) *)
  mutable warm : Engine.warm option;  (** [None] until [load] finishes *)
  mutable last_outcomes : Engine.element_outcome list;
  mutable digest : string;
      (** content address of [spec]; [""] = stale, recomputed lazily by
          {!content_digest} (edits invalidate instead of re-hashing) *)
  mutable last_used : float;  (** [Unix.gettimeofday] of last dispatch *)
  mutable inflight : int;  (** dispatched, not yet completed requests *)
  mutable requests : int;  (** requests ever dispatched *)
}

type table

val table :
  ?on_evict:(t -> unit) -> max_sessions:int -> jobs:int -> unit -> table
(** [on_evict] fires — outside the table lock — whenever a session
    leaves the table, by LRU eviction or by {!remove}.  The server uses
    it to clear the session's entries from its pinned worker's
    {!Explore.Pool.Service} scratch; without that, per-session memo
    state keyed on the worker would outlive the session. *)

val register :
  table -> base:Spec_file.t -> spec:Spec.t -> digest:string ->
  (t, string) result
(** Creates a session (fresh id, worker pin, scope) and inserts it,
    evicting the least-recently-used idle session if the table is full;
    [Error] when every session is busy and nothing can be evicted.
    The caller dispatches the warming job afterwards. *)

val content_digest : t -> string
(** Memoized {!Spec.digest} of the session's current spec. Edits clear
    [digest] rather than re-hashing — a warm session only pays the hash
    when something consumes the content address (the analyse cache
    key). Worker-domain only, like every other analysis field. *)

val find : table -> string -> t option

val checkout : table -> string -> t option
(** {!find}, also marking the session busy ([inflight + 1]) and touching
    [last_used] — call when dispatching a request, and pair each
    checkout with exactly one {!checkin}. *)

val checkin : table -> t -> unit

val remove : table -> string -> bool
(** Drops the session from the table (its warm state is garbage) and
    fires [on_evict].  [false] when the id is unknown. *)

val count : table -> int

val ids : table -> string list
(** Session ids, sorted. *)

val evictions : table -> int
(** Sessions evicted by LRU pressure since the table was created. *)
