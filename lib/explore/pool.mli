(** Fixed-size domain pool with a shared work queue and a deterministic
    merge.

    [map ~jobs f n] evaluates [f 0 .. f (n - 1)] on a pool of domains
    pulling work from a shared queue and returns the results {e in index
    order}, so the output is independent of [jobs] and of how the
    scheduler interleaved the workers.

    {b Effective parallelism.}  [jobs] is a {e request}: the pool runs
    [min jobs (Domain.recommended_domain_count ())] worker domains
    (see {!effective_jobs}), because oversubscribing cores makes OCaml 5
    throughput collapse — every minor collection is a stop-the-world
    handshake across all domains.  Results are unaffected (the merge is
    index-ordered either way); only the schedule changes.  Pass
    [~oversubscribe:true] to force one domain per requested job (tests
    that need real extra domains on a machine with fewer cores).
    [effective_jobs _ = 1] runs everything in the calling domain (no
    spawn), which is the baseline the determinism guard compares
    against.

    {b Scheduling.}  Every map claims items one at a time off a shared
    atomic counter, in globally ascending order, checking its guard
    before each claim.  Ascending claims are what make the interrupted
    prefix deterministic across jobs counts (see {!map_guarded}); with
    no guard the check returns at once.

    {b Domain-locality contract.}  [f] runs on a worker domain.  Every
    mutable structure it touches must be created inside the call — in
    particular specs and their event streams, whose memoized curves are
    not synchronised (see [Event_model.Curve]).  This is why the
    exploration drivers take {e builders} ([unit -> Spec.t]) and apply
    edits worker-side instead of accepting pre-built specs: a [Spec.t]
    built once in the parent domain and probed from several workers would
    race on its curve memo tables.

    Telemetry: every worker runs under its own [Obs.Metrics] scope
    ([<label>.worker<i>]), whose snapshot is returned in
    {!worker_stat.counters}; the pool bumps the global counters
    [explore.pool.tasks], [explore.pool.maps] and
    [explore.pool.interrupts].  When [Obs.Hist.enabled], each worker
    times its items into a private histogram and the pool merges them
    into the registered distribution [<label>.task_ns] after the join.
    When a tracing sink is installed, one [<label>.worker<i>] span per
    worker (with [tasks] / [busy_us] / [idle_us] attributes)
    is emitted {e after} the join, with explicit timestamps, so worker
    domains never touch the sink concurrently. *)

type worker_stat = {
  worker : int;  (** worker index, [0 .. effective_jobs - 1] *)
  tasks : int;  (** queue items this worker executed *)
  busy_us : float;  (** wall time of the worker's drain loop *)
  idle_us : float;
      (** tail imbalance: how long this worker's peers kept running
          after it finished (0 for the last finisher) *)
  counters : (string * int) list;
      (** non-zero metrics charged to the worker's scope, sorted by name *)
}

(** Result of a guarded map.  [Interrupted] carries the {e contiguous
    completed prefix} [f 0 .. f (c - 1)]: items at or beyond [c] may
    also have completed on other workers before the stop propagated
    ([attempted] counts all completions), but only the prefix is
    deterministic, so only the prefix is returned. *)
type 'a outcome =
  | Complete of 'a list
  | Interrupted of {
      completed : 'a list;  (** the contiguous prefix, in index order *)
      reason : Guard.Error.t;
      attempted : int;  (** items that completed anywhere in the queue *)
    }

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism. *)

val effective_jobs : ?oversubscribe:bool -> int -> int
(** Number of worker domains a map with this [jobs] request will run:
    [max 1 (min jobs (default_jobs ()))], or [jobs] itself when
    [oversubscribe] is set. *)

val map :
  ?jobs:int -> ?oversubscribe:bool -> ?label:string -> (int -> 'a) -> int ->
  'a list
(** [map ~jobs f n] is [[f 0; ...; f (n - 1)]], evaluated on
    [effective_jobs jobs] domains.  [jobs] defaults to {!default_jobs};
    [label] (default ["explore.pool"]) names the metric scopes and
    spans.  If any [f i] raises, the exception of the {e smallest}
    failing index is re-raised after all workers have been joined
    (deterministic error too).
    @raise Invalid_argument when [jobs < 1] or [n < 0]. *)

val map_guarded :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?label:string ->
  ?guard:Guard.t ->
  (int -> 'a) ->
  int ->
  'a outcome * worker_stat list
(** Like {!map}, but checks [guard] before every claim and returns
    per-worker telemetry (in worker order; one entry per {e effective}
    worker).  When the guard trips (cancellation, deadline, budget),
    every worker stops at its next claim, all domains are joined, and the
    call returns [Interrupted] with the completed prefix instead of
    raising.  [f] itself runs unguarded — interruption granularity is
    one queue item.

    Error precedence after the join (all deterministic): the smallest
    index whose [f i] raised wins; then the lowest-numbered worker's
    crash (an exception escaping the claim path itself); then the
    interruption.  On all paths every spawned domain has been joined —
    including when [Domain.spawn] itself fails mid-way, in which case
    the already-running helpers are drained, joined, and the spawn
    failure re-raised.

    Fault-injection sites (see {!Guard.Inject}): ["<label>.item:<i>"]
    fired by the claiming worker before executing item [i] (a [Crash]
    there is a worker death, a [Trip] a forced stop), and
    ["<label>.spawn:<k>"] fired before spawning helper
    [k <= effective_jobs - 1] (combine with [~oversubscribe:true] to
    exercise spawns regardless of the machine's core count). *)

(** Persistent worker domains with pinned per-worker mailboxes — the
    long-running counterpart of {!map} for servers.  Where a map spawns
    domains per call and merges once, a service keeps [jobs] domains
    alive and lets callers submit jobs to a {e specific} worker: jobs
    pinned to the same worker run sequentially on the same domain, which
    is how a serving session honours the pool's domain-locality contract
    (its cached streams' curve memo tables are unsynchronised, so every
    request touching one session must run where the session lives).
    Jobs deliberately never move between mailboxes.

    Jobs are [unit -> unit] thunks; delivering results (and exceptions —
    a raising job is swallowed, the worker survives) is the submitter's
    wrapper's concern.  Metrics: [explore.pool.service.jobs] accepted,
    [explore.pool.service.rejected] refused after shutdown began. *)
module Service : sig
  type t

  val create : ?jobs:int -> ?label:string -> unit -> t
  (** Spawns [effective_jobs jobs] worker domains ([jobs] defaults to
      {!default_jobs}; [label] defaults to ["explore.pool.service"]).
      @raise Invalid_argument when [jobs < 1]. *)

  val jobs : t -> int
  (** Number of worker domains actually running. *)

  val label : t -> string

  val submit : t -> worker:int -> (unit -> unit) -> bool
  (** Enqueue a job on worker [worker]'s mailbox; [false] when the
      service is shutting down (the job was not enqueued).
      @raise Invalid_argument when [worker] is outside [0 .. jobs-1]. *)

  val depth : t -> worker:int -> int
  (** Jobs currently queued (not yet started) on a worker — the
      admission-control signal.
      @raise Invalid_argument when [worker] is outside [0 .. jobs-1]. *)

  val shutdown : t -> unit
  (** Stop accepting jobs, let every worker drain its mailbox, and join
      all worker domains.  Idempotent in effect but must only be called
      once. *)
end
