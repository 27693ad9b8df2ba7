(** Cooperative cancellation, wall-clock deadlines and work budgets.

    A guard token is created once per long-running entry point
    ([Engine.analyse], an exploration sweep, a verification batch) and
    polled at cheap, frequent checkpoints: the engine checks it at every
    global iteration, and the scheduling analyses {!tick} the ambient
    token once per busy-window activation and fixpoint step — which is
    also the unit the budget is denominated in.

    Trips are {e sticky}: once a token reports an interrupt reason it
    reports the same reason forever, so every checkpoint of a tripped
    computation agrees on why it stopped.  The first trip emits an
    [Obs] instant event and bumps a [guard.trips.*] metric.

    The {e ambient} token is carried in domain-local storage so deep
    callees (curve evaluation loops, busy windows) need no extra
    parameter.  When nothing installed a token, {!ambient} returns
    {!none} and {!tick} is two loads and a branch — the same
    zero-cost-when-absent contract as the [?selfcheck] hook. *)

module Error = Error
module Inject = Inject

type t

val none : t
(** The inert token: never trips, costs a branch to check. *)

val create : ?deadline_ms:float -> ?budget:int -> unit -> t
(** A fresh token.  [deadline_ms] is relative to now; [budget] is in
    work units (busy-window activations + fixpoint steps).  Omitted
    limits never trip; the token remains cancellable. *)

val active : t -> bool
(** [false] only for {!none}. *)

val cancel : t -> unit
(** Triggers the token from any domain; idempotent. *)

val poll : t -> Error.t option
(** The sticky trip reason, checking cancellation, then budget, then
    deadline on first trip.  [None] while the token is clean. *)

val check : t -> unit
(** Raises [Error.Error r] if {!poll} reports [r]. *)

val spend : t -> int -> unit
(** Consumes work units from the budget, then {!check}s. *)

val deadline_ms : t -> float option
val budget : t -> int option

val consumed : t -> int
(** Work units spent against the budget so far; [0] when no budget was
    set. *)

val observe_completion : t -> unit
(** Records this token's end-of-run distributions — remaining deadline
    slack into the [guard.deadline_slack_us] histogram (clamped at 0)
    and budget consumption into [guard.budget_consumed] — when
    histograms are enabled.  Call once, where the guarded computation
    finishes; inert tokens and unset limits record nothing.  Must be
    called from one domain at a time (histogram cells are
    unsynchronised). *)

(** {1 Ambient token} *)

val ambient : unit -> t
(** The calling domain's installed token, or {!none}. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Installs a token for the extent of the callback (exception-safe,
    restores the previous token). *)

val tick : ?cost:int -> unit -> unit
(** [spend (ambient ()) cost] — the checkpoint instrumented code drops
    into hot loops.  No-op when no token is installed. *)
