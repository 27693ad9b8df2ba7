(** Pluggable output-model propagation (pyCPA-inspired).

    The analysis engine turns an analysed element's input stream and
    response-time interval into an output stream.  The paper's exact
    Theta_tau recursion ({!Task_op.output}) is one way to do that; pyCPA
    ships a family of alternatives trading tightness against cost, plus a
    per-task [optimal] selection.  This module gives them a common
    signature so the engine, the exploration space and the verification
    oracles can treat the propagation method as data.

    All modes share the output maximum-distance curve
    [delta_plus' n = delta_plus n + (r+ - r-)]; they differ in the
    minimum-distance curve:

    - {b theta_tau}: the paper's recursion
      [d' n = max (d n - (r+ - r-)) (d' (n-1) + r-)] — the repo default,
      with the compact verified-window kernel path;
    - {b jitter}: nonrecursive jitter amplification
      [max 0 (d n - (r+ - r-))], minimum distance dropped (pyCPA
      ['jitter']);
    - {b jitter_offset}: the jitter term with the best-case-response
      serialization floor [(n-1) * r-] (pyCPA ['jitter_offset'] /
      ['jitter_dmin']; stream curves carry no phases, so the offset shift
      itself is invisible here);
    - {b jitter_bmin}: the jitter term with the minimum-service floor
      [(n-1) * bmin] (pyCPA ['jitter_bmin']);
    - {b busy_window}: additionally refines the jitter term with
      per-activation completion times of the maximal busy window
      (Schliecker-style): [min_q (d (n+q-1) - finish q) + r-].  Falls
      back to [jitter_offset] when no completion profile is available;
    - {b optimal}: the pointwise max of every mode's minimum-distance
      curve — tightest sound output, per task. *)

type mode =
  | Theta_tau
  | Jitter
  | Jitter_offset
  | Jitter_bmin
  | Busy_window
  | Optimal

val all_modes : mode list

val mode_name : mode -> string

val mode_of_name : string -> mode option

val pp_mode : Format.formatter -> mode -> unit

(** Per-activation completion data of one maximal busy window: for
    [q = 1 .. Array.length finishes], [arrivals.(q-1)] is the earliest
    arrival of the q-th activation and [finishes.(q-1)] its worst-case
    completion, both relative to the window start. *)
type profile = {
  arrivals : int array;
  finishes : int array;
}

val profile : arrivals:int array -> finishes:int array -> profile
(** Validating constructor (copies its inputs).
    @raise Invalid_argument on length mismatch, empty data, a completion
    before its arrival, or non-monotone columns. *)

val profile_equal : profile -> profile -> bool

val derive :
  ?name:string ->
  mode:mode ->
  response:Timebase.Interval.t ->
  bmin:int ->
  ?profile:profile ->
  Stream.t ->
  Stream.t
(** [derive ~mode ~response ~bmin stream] is the output stream of an
    element with response interval [response] processing [stream], under
    the given propagation mode.  [bmin] is the element's minimum service
    time (floor of the execution / transmission interval); [profile] is
    the busy-window completion data consumed by the [busy_window] and
    [optimal] modes.  [Theta_tau] delegates to {!Task_op.output}
    (including its compact kernel path).

    Every other mode computes its [delta_min] as one packed range kernel
    ({!Curve.table}) taking the pointwise max of its terms.  When the
    input's minimum-distance curve carries a compact periodic tail,
    {!Curve.periodic_from} certifies that max as a compact periodic
    curve (the proof is in the implementation comment).  Downstream
    consumers that branch on exact periodic tails — notably
    {!Shaper.delay_bound} — then take their exact path instead of
    heuristic wide-window fallbacks.  When no tail is available (or the
    certificate search hits its cap), the result is the table-backed
    curve itself; values are identical either way.  [delta_plus] is
    {!Task_op.delta_plus} in every mode.
    @raise Invalid_argument when [bmin < 0]. *)
