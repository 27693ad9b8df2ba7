module Interval = Timebase.Interval

type mode =
  | Theta_tau
  | Jitter
  | Jitter_offset
  | Jitter_bmin
  | Busy_window
  | Optimal

let all_modes =
  [ Theta_tau; Jitter; Jitter_offset; Jitter_bmin; Busy_window; Optimal ]

let mode_name = function
  | Theta_tau -> "theta_tau"
  | Jitter -> "jitter"
  | Jitter_offset -> "jitter_offset"
  | Jitter_bmin -> "jitter_bmin"
  | Busy_window -> "busy_window"
  | Optimal -> "optimal"

let mode_of_name = function
  | "theta_tau" -> Some Theta_tau
  | "jitter" -> Some Jitter
  | "jitter_offset" -> Some Jitter_offset
  | "jitter_bmin" -> Some Jitter_bmin
  | "busy_window" -> Some Busy_window
  | "optimal" -> Some Optimal
  | _ -> None

let pp_mode ppf m = Format.pp_print_string ppf (mode_name m)

type profile = {
  arrivals : int array;
  finishes : int array;
}

let profile ~arrivals ~finishes =
  if Array.length arrivals <> Array.length finishes then
    invalid_arg "Propagation.profile: length mismatch";
  if Array.length arrivals = 0 then
    invalid_arg "Propagation.profile: empty profile";
  let ok = ref true in
  for q = 0 to Array.length arrivals - 1 do
    if finishes.(q) < arrivals.(q) then ok := false;
    if q > 0 && (arrivals.(q) < arrivals.(q - 1) || finishes.(q) < finishes.(q - 1))
    then ok := false
  done;
  if not !ok then invalid_arg "Propagation.profile: non-monotone completion data";
  { arrivals = Array.copy arrivals; finishes = Array.copy finishes }

let profile_equal a b =
  a.arrivals = b.arrivals && a.finishes = b.finishes

(* ------------------------------------------------------------------ *)
(* Output delta_min candidates.

   Throughout, [J = r+ - r-] is the response-time spread (output jitter
   amplification) and every candidate is a sound lower bound on the
   distance of [n] consecutive output events:

   - the {e jitter} term [max 0 (delta_min n - J)]: the first of the n
     outputs leaves at the latest [r+] after its arrival, the last at the
     earliest [r-] after its own, and the arrivals are at least
     [delta_min n] apart (Richter's output jitter equation);
   - the {e serialization} floor [(n-1) * r-]: successive completions of
     the same element are at least a best-case response apart;
   - the {e execution} floor [(n-1) * bmin]: each of the n-1 jobs between
     the two boundary outputs costs at least its minimum service time
     after its predecessor's completion, preemption only widens it;
   - the {e busy-window} term
     [min_q (delta_min (n + q - 1) - finish q) + r-]
     (Schliecker-style): if the first of the n outputs is the q-th
     activation of its busy window, it completes no later than
     [window start + finish q], while the last of the n arrives no
     earlier than [window start + delta_min (n + q - 1)] and completes at
     least [r-] after that.  Taking the minimum over every possible
     in-window position [q] covers all cases; the per-activation
     completions refine the single worst-case jitter [J] whenever the
     worst response is not attained by the window's first activation.
     The subtraction stays raw: the candidate can legitimately be
     negative, and clamping it before the outer [max] would raise the
     minimum unsoundly.

   Each candidate is monotone in [n], so any pointwise [max] of them is a
   well-formed distance curve; the [max] of sound lower bounds is itself
   sound, which is also why the [optimal] mode (Θτ's curve and every
   term above) is sound. *)

let output_name name stream =
  match name with
  | Some n -> n
  | None -> Printf.sprintf "out(%s)" (Stream.name stream)

(* The rates of the floors a mode uses; the busy-window term joins when a
   completion profile is given, Θτ's curve in [Optimal]. *)
let floor_rates ~mode ~r_minus ~bmin =
  match mode with
  | Theta_tau | Jitter -> []
  | Jitter_offset | Busy_window -> [ r_minus ]
  | Jitter_bmin -> [ bmin ]
  | Optimal -> [ r_minus; bmin ]

(* The pointwise max of the terms as one range kernel over the packed
   input; [packed_inf] in the input propagates through every term. *)
let delta_min_table ~spread ~r_minus ~rates ~finishes ~theta din =
  let inf = Curve.packed_inf in
  let q_max = Array.length finishes in
  Curve.table ~pointwise:true (fun ~n0 ~len ~dst ~pos ->
    (* the busy-window term at n reads the input at n .. n + q_max - 1 *)
    let d = Array.make (len + Stdlib.max 0 (q_max - 1)) 0 in
    Curve.eval_range_into din ~n0 ~len:(Array.length d) ~dst:d ~pos:0;
    (match theta with
     | Some t -> Curve.eval_range_into t ~n0 ~len ~dst ~pos
     | None -> Array.fill dst pos len 0);
    for i = 0 to len - 1 do
      let n = n0 + i in
      let jitter = if d.(i) = inf then inf else Stdlib.max 0 (d.(i) - spread) in
      let m = ref (Stdlib.max dst.(pos + i) jitter) in
      List.iter (fun r -> m := Stdlib.max !m ((n - 1) * r)) rates;
      (* at an infinite input distance the jitter term is already
         infinite; otherwise the q = 1 candidate is finite *)
      if q_max > 0 && d.(i) <> inf then begin
        let best = ref inf in
        for q = 1 to q_max do
          let v = d.(i + q - 1) in
          if v <> inf then best := Stdlib.min !best (v - finishes.(q - 1))
        done;
        m := Stdlib.max !m (!best + r_minus)
      end;
      dst.(pos + i) <- !m
    done)

(* ------------------------------------------------------------------ *)
(* Compact construction.

   When the input's minimum-distance curve carries a compact periodic
   tail (plen, pe, pt), every term [T] satisfies
   [T (n + pe) <= T n + inc] for [n >= start], with equality except for
   the clamped jitter term while it is clamped:

   - the jitter term inherits the input tail, [inc = pt], for
     [n >= plen + 2] (curve extension semantics);
   - a floor with rate [r] has [inc = pe * r] everywhere;
   - each busy-window candidate is the input curve shifted by [q - 1]
     events minus a constant, so it inherits the input tail, and so does
     the min of the finitely many of them;
   - Θτ's curve (optimal mode) exposes its own compact tail
     (plen_t, pe_t, pt_t); when [pe_t] divides [pe] its pe-block
     increment is [(pe / pe_t) * pt_t] for [n >= plen_t + 2].

   Let [ptc] be the largest increment and [M] the max of the terms, so
   [M n <= M (n - pe) + ptc] once [n - pe >= start].  Suppose equality
   holds at such an [n].  Then some term with increment [ptc] attained
   the max at [n - pe] and gained the full [ptc] (for the jitter term
   that makes it unclamped at [n] when [ptc > 0], and it stays so), so
   it attains the max at [n], and [M (n + pe) = M n + ptc] follows;
   by induction the equation holds at every later index of [n]'s
   residue class.  A window of [pe] consecutive indices past
   [start + pe - 1] covers every residue class, so [Curve.periodic_from]
   with that start, window [pe] and tail [(pe, ptc)] is a sound
   certificate.  If none is found below the cap (the crossover between a
   slow floor and a faster tail sits arbitrarily far out for extreme
   jitter), or Θτ's curve has no compatible tail, the table itself is
   the result: never unsound, only less compact.  Compactness is what
   downstream consumers key on: [Shaper.delay_bound] takes its exact
   periodic-tail branch instead of the wide-window slope-estimate
   fallback, which misclassifies large-jitter inputs as unbounded. *)

let compact_delta_min ~rates ~theta table din =
  match Curve.periodic_tail din with
  | None -> None
  | Some (plen, pe, pt) -> begin
    let theta_tail =
      match theta with
      | None -> Some (2, 0)
      | Some t -> begin
        match Curve.periodic_tail t with
        | Some (plen_t, pe_t, pt_t) when pe mod pe_t = 0 ->
          Some (plen_t + 2, (pe / pe_t) * pt_t)
        | Some _ | None -> None
      end
    in
    match theta_tail with
    | None -> None
    | Some (theta_start, theta_inc) ->
      let ptc =
        List.fold_left
          (fun acc r -> Stdlib.max acc (pe * r))
          (Stdlib.max pt theta_inc) rates
      in
      let start = Stdlib.max (plen + 2) theta_start in
      Curve.periodic_from table ~start:(start + pe - 1) ~window:pe
        ~cap:(start + (16 * pe) + 8192) ~period_events:pe ~period_time:ptc
  end

let derive ?name ~mode ~response ~bmin ?profile stream =
  if bmin < 0 then invalid_arg "Propagation.derive: negative bmin";
  match mode with
  | Theta_tau -> Task_op.output ?name ~response stream
  | Jitter | Jitter_offset | Jitter_bmin | Busy_window | Optimal ->
    let r_minus = Interval.lo response in
    let spread = Interval.width response in
    let rates = floor_rates ~mode ~r_minus ~bmin in
    let finishes =
      match mode, profile with
      | (Busy_window | Optimal), Some p -> p.finishes
      | _ -> [||]
    in
    (* Θτ dominates the nonrecursive jitter family whenever [bmin <= r-]
       (always true for analysed elements, where both come from the same
       response interval), but taking the explicit max keeps dominance
       unconditional for arbitrary caller-supplied [bmin] *)
    let theta =
      match mode with
      | Optimal -> Some (Task_op.delta_min ~response stream)
      | _ -> None
    in
    let din = Stream.delta_min_curve stream in
    let table =
      delta_min_table ~spread ~r_minus ~rates ~finishes ~theta din
    in
    let delta_min =
      match compact_delta_min ~rates ~theta table din with
      | Some curve -> curve
      | None -> table
    in
    Stream.of_curves ~name:(output_name name stream) ~delta_min
      ~delta_plus:(Task_op.delta_plus ~spread stream)
