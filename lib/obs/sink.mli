(** Pluggable event sinks.

    At most one sink is installed per process.  Instrumented code checks
    {!enabled} before building attributes, so with no sink installed the
    tracing layer costs one atomic read per probe and allocates nothing.

    Reading the installed state ({!enabled}, {!installed}) is safe from
    any domain; {!install} / {!uninstall} and event {e emission} belong to
    the main domain — built-in sinks do not serialise concurrent [emit]
    calls.  Worker-domain telemetry is either counted through the
    domain-safe {!Metrics} registry or emitted retroactively (with
    explicit timestamps) after the workers are joined, as [Explore.Pool]
    does. *)

type level =
  | Spans  (** span begin/end events only *)
  | Full  (** spans plus instants and counter samples *)

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;
}

val make : ?flush:(unit -> unit) -> (Event.t -> unit) -> t

val install : ?level:level -> t -> unit
(** Installs [t] as the process sink (replacing any previous one, which is
    flushed first).  [level] defaults to {!Full}. *)

val uninstall : unit -> unit
(** Flushes and removes the installed sink; a no-op when none is
    installed. *)

val installed : unit -> t option
val enabled : unit -> bool
val level : unit -> level
(** The installed level; {!Full} when no sink is installed. *)

val enabled_full : unit -> bool
(** A sink is installed at {!Full} level (instants/counters wanted). *)

(** {1 Built-in sinks} *)

val null : t
(** Drops everything (useful to measure instrumentation overhead). *)

val memory : ?capacity:int -> unit -> t * (unit -> Event.t list)
(** [memory ()] is an in-memory ring buffer keeping the most recent
    [capacity] (default [65536]) events, and a function returning them in
    emission order. *)
