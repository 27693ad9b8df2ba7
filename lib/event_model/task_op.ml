module Interval = Timebase.Interval

(* Table fallbacks for inputs without a periodic tail: the recurrence
   runs over the packed input, reading its own previous cell. *)
let table_delta_min ~r_minus ~spread stream =
  let input = Stream.delta_min_curve stream in
  Curve.table (fun ~n0 ~len ~dst ~pos ->
    Curve.eval_range_into input ~n0 ~len ~dst ~pos;
    for i = pos to pos + len - 1 do
      let v = dst.(i) and prev = dst.(i - 1) in
      let arrival =
        if v = Curve.packed_inf then v else Int.max 0 (v - spread)
      in
      let chain = if prev = Curve.packed_inf then prev else prev + r_minus in
      dst.(i) <- Int.max arrival chain
    done)

let table_delta_plus ~spread stream =
  let input = Stream.delta_plus_curve stream in
  Curve.table ~pointwise:true (fun ~n0 ~len ~dst ~pos ->
    Curve.eval_range_into input ~n0 ~len ~dst ~pos;
    for i = pos to pos + len - 1 do
      if dst.(i) <> Curve.packed_inf then dst.(i) <- dst.(i) + spread
    done)

(* ------------------------------------------------------------------ *)
(* Compact construction.

   When the input delta_min is compact periodic (prefix length [plen],
   tail [(pe, pt)]), the output recurrence

     out n = max (max (in n - spread) 0) (out (n-1) + r)

   is itself eventually periodic: unrolling gives
   [out n = n*r + max (-r) (G n)] with
   [G n = max over 2 <= k <= n of (in k - spread - k*r)], and
   [in (n + pe) = in n + pt] holds for every [n >= max 2 (plen+2-pe)]
   (inside the prefix the representation maps tail indices back onto the
   last [pe] prefix entries).  With [delta = pt - pe*r]:

   - [delta <= 0]: the chain term wins: [G] is constant from
     [p0 = plen+1+pe] on, so [out (n+1) = out n + r] — tail [(1, r)].
   - [delta > 0]: the arrival term wins eventually — tail [(pe, pt)].

   Rather than trusting the closed form, the constructor hands the exact
   recurrence (the table fallback) to [Curve.periodic_from], which
   {e verifies} one full period beyond a candidate prefix end [p]
   ([out n = out (n - pe') + pt'] for [p < n <= p + pe]).  That check
   is a sound certificate: both the
   candidate curve and the true recurrence then shift additively
   ([X (n+pe) = X n + pt'*(pe/pe')], [c (n+pe) <= c n + pt] with equality
   beyond the clamp point), so agreement on one period propagates to all
   larger [n] by induction.  For the [(pe, pt)] tail the clamp
   [max (in n - spread) 0] must already be inactive throughout the tail
   ([in n >= spread] from [n_c] on), hence the [n_c + pe] floor on [p];
   for the [(1, r)] tail the inequality direction suffices.  If the
   window check fails the prefix is extended; past a cap the constructor
   returns the table recurrence itself, already filled, so compactness is
   an optimisation, never a change in semantics. *)

let compact_delta_min ~r ~spread ~recurrence in_curve =
  match Curve.periodic_tail in_curve with
  | None -> None
  | Some (plen, pe, pt) ->
    if r < 0 || spread < 0 then None
    else begin
      let delta = pt - (pe * r) in
      let pe', pt' = if delta > 0 then (pe, pt) else (1, r) in
      let cap = plen + (8 * pe) + 4096 in
      let n_c =
        if delta <= 0 || spread = 0 then 2
        else
          (* first n with in n >= spread; in grows without bound here
             (pt > pe*r >= 0) so the search terminates *)
          1 + Curve.count_lt_packed in_curve ~lo:1 ~limit:spread
      in
      if n_c > cap then None
      else begin
        let p0 = plen + 1 + pe in
        let start =
          Stdlib.max
            (Stdlib.max p0 (pe + 1))
            (if delta > 0 then n_c + pe else 2)
        in
        Curve.periodic_from recurrence ~start ~window:pe ~cap
          ~period_events:pe' ~period_time:pt'
      end
    end

let compact_delta_plus ~spread in_plus =
  match Curve.periodic_tail in_plus with
  | None -> None
  | Some (plen, pe, pt) ->
    if spread < 0 then None
    else begin
      (* out n = in n + spread for n >= 2 inherits the tail verbatim *)
      let prefix = Array.make plen 0 in
      Curve.eval_range_into in_plus ~n0:2 ~len:plen ~dst:prefix ~pos:0;
      for i = 0 to plen - 1 do
        prefix.(i) <- prefix.(i) + spread
      done;
      match Curve.periodic ~prefix ~period_events:pe ~period_time:pt with
      | curve -> Some curve
      | exception Invalid_argument _ -> None
    end

let delta_min ~response stream =
  let r_minus = Interval.lo response in
  let spread = Interval.width response in
  let recurrence = table_delta_min ~r_minus ~spread stream in
  match
    compact_delta_min ~r:r_minus ~spread ~recurrence
      (Stream.delta_min_curve stream)
  with
  | Some curve -> curve
  | None -> recurrence

let delta_plus ~spread stream =
  match compact_delta_plus ~spread (Stream.delta_plus_curve stream) with
  | Some curve -> curve
  | None -> table_delta_plus ~spread stream

let output ?name ~response stream =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "out(%s)" (Stream.name stream)
  in
  Stream.of_curves ~name ~delta_min:(delta_min ~response stream)
    ~delta_plus:(delta_plus ~spread:(Interval.width response) stream)
