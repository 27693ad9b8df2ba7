(** Event-stream combination operators.

    Stream constructors combine the input streams of a task with multiple
    inputs into a single activating stream (Jersak).  The OR-combination
    implements the paper's eqs. (3)-(4) exactly.  Read as event counts,
    both equations are order statistics over the inputs' distance values,
    so they are computed by one k-way merge of the inputs' curves rather
    than by convolving over contribution vectors. *)

val or_combine : ?name:string -> Stream.t list -> Stream.t
(** [or_combine streams] is the OR-activation stream: every input event
    produces one output event.

    - [delta_min n = min over contribution vectors K (sum = n) of
      max_i delta_min_i k_i]  (eq. 3), which for monotone inputs is the
      [n]-th smallest of [{delta_min_i j | i, j >= 1}];
    - [delta_plus n = max over contribution vectors K (sum = n - 2) of
      min_i delta_plus_i (k_i + 2)]  (eq. 4), which for monotone inputs
      is the [(n - 1)]-th smallest of [{delta_plus_i j | i, j >= 2}].

    The merge relies on the monotone-curve contract of {!Stream.make},
    which [Verify.Stream] audits.  A prefix up to [N] of the result costs
    O([N * k]) comparisons for [k] inputs and reads at most [N] values of
    each input curve.  A single input is returned as is, renamed (so a
    compact input stays compact).

    @raise Invalid_argument on the empty list. *)

val and_combine : ?name:string -> Stream.t list -> Stream.t
(** [and_combine streams] is a conservative AND-activation stream: the j-th
    output event occurs when the j-th event of every input has arrived.
    Sound bounds: [delta_min n = min_i delta_min_i n] and
    [delta_plus n = max_i delta_plus_i n] (the j-th output follows the
    latest input, so spacing can neither shrink below the tightest input
    spacing nor stretch beyond the widest).

    @raise Invalid_argument on the empty list. *)
