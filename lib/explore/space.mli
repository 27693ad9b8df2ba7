(** Design-space description: variants as pure-data edits of a base system.

    A variant is a list of {!edit}s applied to a freshly built base spec.
    Edits are plain data — no closures over streams — so a work list can
    be fanned out to worker domains and each worker rebuilds its spec
    (and therefore its curve memo tables) domain-locally, as the
    {!Pool} contract requires.  Identical specs produced by different
    edit paths collide on [Spec.digest] and are analysed once. *)

module Spec = Cpa_system.Spec

type edit =
  | Source_period of { source : string; period : int }
      (** replace the named source with a strictly periodic stream *)
  | Source_jitter of {
      source : string;
      period : int;
      jitter : int;
      d_min : int;
    }  (** replace the named source with a periodic-with-jitter stream *)
  | Cet_scale of { task : string; percent : int }
      (** scale the task's execution-time interval (rounded up, floor 1) *)
  | Task_priority of { task : string; priority : int }
  | Frame_priority of { frame : string; priority : int }
  | Frame_tx of { frame : string; tx : Timebase.Interval.t }
  | Propagation_mode of {
      task : string option;
      mode : Event_model.Propagation.mode;
    }
      (** set a task's output-propagation override, or ([task = None])
          the spec-wide default mode *)
  | Backend of {
      resource : string;
      backend : Spec.backend;
    }
      (** switch the named resource's local analysis between the
          busy-window ([Cpa]) and curve ([Rtc]) backends *)
  | Repack of packing
      (** reassign the signals of a bus to a new set of frames *)

(** A signal-to-frame layout for one bus: [groups] partitions the names
    of every signal currently transported on the bus; group [i] becomes
    frame ["LF<i+1>"] with priority [i + 1], send type [Direct], and a
    transmission time derived from a {!Comstack.Layout} packing
    [bits_per_signal] bits per signal at [bit_time] time units per bit.
    Activations referencing a repacked signal are re-pointed to its new
    frame.  Signal transfer properties are preserved, except that a group
    consisting only of pending signals has them promoted to triggering —
    a direct frame with no triggering signal could never be sent. *)
and packing = {
  bus : string;
  groups : string list list;
  bits_per_signal : int;
  bit_time : int;
}

val edit_label : edit -> string
(** Compact human-readable rendering, e.g. ["S3.period=500"],
    ["T3.cet=150%"], ["layout=sig1+sig2|sig3"]. *)

val scale_cet : Spec.t -> task:string -> percent:int -> Spec.t
(** The [Cet_scale] edit: a copy of the system with the named task's
    execution-time interval scaled to [percent]/100 (rounded up, floored
    at 1).
    @raise Not_found for an unknown task name.
    @raise Invalid_argument when [percent < 1]. *)

val apply : Spec.t -> edit -> Spec.t
(** @raise Not_found when the edit names an unknown element.
    @raise Invalid_argument for malformed packings (wrong signal set,
    payload overflow, or a [From_frame] reference to a repacked frame,
    which has no unambiguous target). *)

val apply_all : Spec.t -> edit list -> Spec.t

val touched : Spec.t -> edit -> string list * string list
(** [(sources, elements)] the edit rewrites, evaluated against the
    {e pre-edit} spec.  A [Repack] reports both the frames currently on
    the bus and the ["LF<i>"] frames it will create, so callers holding
    warm analysis state can invalidate replaced and replacement elements
    alike.  Purely syntactic — never raises, even for edits [apply]
    would reject. *)

(** {1 Axes and grids} *)

type axis = {
  axis_name : string;
  points : (string * edit) list;  (** point label (no axis prefix), edit *)
}

type variant = {
  label : string;
  edits : edit list;
}

val axis : string -> (string * edit) list -> axis

val int_axis : string -> (int -> edit) -> int list -> axis
(** Points labelled by their integer value. *)

val grid : axis list -> variant list
(** Cross product, first axis varying slowest; labels are the
    [" "]-joined ["axis=point"] pairs.  The grid of no axes is the single
    unlabelled identity variant. *)

(** {1 Layout enumeration} *)

val packings :
  ?max_frames:int ->
  ?bits_per_signal:int ->
  ?bit_time:int ->
  Spec.t ->
  bus:string ->
  unit ->
  packing list
(** All set partitions of the signals currently on [bus] into at most
    [max_frames] (default: the signal count) frames whose payload fits a
    CAN frame, in a deterministic order; [bits_per_signal] defaults to
    [8], [bit_time] to [1].  The partition mirroring the current
    assignment is included.  Feed each through [Repack] to sweep frame
    layouts.
    @raise Not_found when [bus] has no frames. *)

val packing_variants :
  ?max_frames:int ->
  ?bits_per_signal:int ->
  ?bit_time:int ->
  Spec.t ->
  bus:string ->
  unit ->
  variant list
(** {!packings} wrapped as labelled single-edit variants. *)
