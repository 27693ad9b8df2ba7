(** The exploration driver: fan a variant family out over the domain
    {!Pool}, deduplicate through the content-addressed {!Cache}, and
    merge deterministically.

    Running the same work list with any [--jobs] value produces the same
    {!report} rows, the same cache statistics (single-flight computes
    each digest exactly once) and the same Pareto fronts; only [wall_ms]
    and the per-worker telemetry vary. *)

module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine

type item = {
  label : string;
  build : unit -> Spec.t;
      (** must build the spec — streams included — from scratch on every
          call: it runs on a worker domain and the resulting curves must
          be domain-local (see {!Pool}) *)
}

val item_of_variant : base:(unit -> Spec.t) -> Space.variant -> item
(** The worker builds [base ()] and applies the variant's edits. *)

val items_of_variants :
  base:(unit -> Spec.t) -> Space.variant list -> item list

val plan :
  base:(unit -> Spec.t) ->
  Space.variant list ->
  (item list, Guard.Error.t) result
(** {!items_of_variants} after applying every variant once to [base ()]
    on the calling domain: an edit that names an unknown element, a
    malformed packing or an out-of-range parameter ends the plan in an
    [Invalid_spec] naming the variant, before any worker starts. *)

val item_of_description : label:string -> Cpa_system.Spec_file.t -> item
(** Rebuilds the spec from the parsed description ([Spec_file.to_spec])
    worker-side; descriptions are pure data and safe to share. *)

type row = {
  label : string;
  digest : string;
  summary : (Summary.t, string) result;
      (** [Error] carries the engine's rejection reason (invalid variant,
          cyclic dependencies) *)
  cache_hit : bool;  (** served from an earlier identical variant *)
}

type report = {
  rows : row list;  (** in item order *)
  jobs : int;
  modes : Engine.mode list;
  cache : Cache.stats;
      (** renormalised to the returned prefix when [interrupted] *)
  wall_ms : float;
  workers : Pool.worker_stat list;
  interrupted : Guard.Error.t option;
      (** [Some reason] when the sweep was stopped by the guard: [rows]
          is then the contiguous completed prefix of the work list *)
}

val run :
  ?jobs:int ->
  ?modes:Engine.mode list ->
  ?guard:Guard.t ->
  item list ->
  report
(** Evaluates every item ([modes] defaults to {!Summary.default_modes},
    [jobs] to {!Pool.default_jobs}).  Item-level analysis errors are
    captured in the rows; only programming errors (unknown edit targets,
    malformed packings) escape as exceptions — build the items with
    {!plan} to get those as a structured error instead.

    With [guard], the sweep stops cooperatively when the token trips
    (deadline, budget, cancellation): every worker domain is joined and
    the report carries the deterministic completed prefix in [rows] plus
    the reason in [interrupted] — completed work is never discarded.
    Interruption granularity is one variant; the engine runs inside
    items are not themselves guarded. *)

val pareto : report -> mode:Engine.mode -> row list
(** The non-dominated rows for [mode] (see {!Summary.pareto}), in item
    order; rows with errors never participate. *)
