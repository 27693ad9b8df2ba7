module Count = Timebase.Count
module Stream = Event_model.Stream

let events stream dt =
  match Stream.eta_plus stream dt with
  | Count.Fin n -> n
  | Count.Inf -> invalid_arg "Rtc.Workload: unbounded arrivals"

let floor_events stream dt =
  match Stream.eta_minus stream dt with
  | Count.Fin n -> n
  | Count.Inf -> invalid_arg "Rtc.Workload: infinite guaranteed arrivals"

(* Tail-rate window selection: [certified] uses rate (g window / window),
   so the window that minimises (Upper) or maximises (Lower) that
   fraction gives the tightest provable tail.  Scanning a bounded
   candidate range keeps tail denominators small (they drive the lcm
   periods of every downstream (min,+) certification); ties prefer the
   smaller window for the same reason. *)
let pick_window ~horizon ~better g =
  let limit = Stdlib.min horizon 128 in
  let best = ref 1 and best_v = ref (g 1) in
  let consider w =
    let v = g w in
    (* compare v/w against best_v/best without floats *)
    if better (v * !best) (!best_v * w) then begin
      best := w;
      best_v := v
    end
  in
  for w = 2 to limit do
    consider w
  done;
  (* Long-window ladder: a stream whose period exceeds the dense range
     would otherwise get its rate from a window shorter than one
     inter-arrival distance — up to period/128 times too steep for an
     Upper tail, the dual shortfall for Lower.  Geometric spacing keeps
     the candidate count logarithmic while landing within a factor of
     two of any optimal window up to the horizon. *)
  let w = ref (2 * limit) in
  while !w < horizon do
    consider !w;
    w := 2 * !w
  done;
  if horizon > limit then consider horizon;
  !best

(* The window search, the certified slack and the samples all read the
   demand on 0..horizon only: evaluate the stream there once. *)
let tabulate ~horizon g = Array.get (Array.init (horizon + 1) g)

let arrival_upper ~horizon ~wcet stream =
  if wcet < 1 then invalid_arg "Rtc.Workload.arrival_upper: wcet < 1";
  if horizon < 1 then invalid_arg "Rtc.Workload.arrival_upper: horizon < 1";
  let g = tabulate ~horizon (fun dt -> wcet * events stream dt) in
  (* eta_plus is subadditive (any window splits into two), so the
     slack-anchor tail of [certified] is sound at every point past the
     horizon — unlike a window-difference estimate, which can undershoot
     the true long-run rate and eventually dip below eta_plus * wcet. *)
  let window = pick_window ~horizon ~better:( < ) g in
  Curve.certified ~kind:Curve.Upper ~horizon ~window g

let arrival_lower ~horizon ~bcet stream =
  if bcet < 1 then invalid_arg "Rtc.Workload.arrival_lower: bcet < 1";
  if horizon < 1 then invalid_arg "Rtc.Workload.arrival_lower: horizon < 1";
  let g = tabulate ~horizon (fun dt -> bcet * floor_events stream dt) in
  (* eta_minus is superadditive (worst windows concatenate), dual of the
     upper case: a window-difference estimate can overshoot the long-run
     guaranteed rate and eventually promise more arrivals than the
     stream guarantees.  Streams with no lower bound get g = 0 on the
     whole candidate range, hence a certified zero tail. *)
  let window = pick_window ~horizon ~better:( > ) g in
  Curve.certified ~kind:Curve.Lower ~horizon ~window g

let service_full ~horizon =
  Curve.linear ~kind:Curve.Lower ~horizon ~rate:(1, 1)

let service_rate ~horizon ~rate = Curve.linear ~kind:Curve.Lower ~horizon ~rate

let service_tdma ~horizon ~slot ~cycle =
  if slot < 1 || cycle < slot then
    invalid_arg "Rtc.Workload.service_tdma: need 1 <= slot <= cycle";
  let g dt =
    let effective = dt - (cycle - slot) in
    if effective <= 0 then 0
    else ((effective / cycle) * slot) + Stdlib.min slot (effective mod cycle)
  in
  (* worst-case TDMA service is superadditive; g cycle = slot recovers
     the exact slot/cycle rate and the certified anchor absorbs the
     within-cycle phase (the raw anchor at an arbitrary horizon point can
     otherwise overshoot the guarantee by up to a slot) *)
  let horizon = Stdlib.max horizon cycle in
  Curve.certified ~kind:Curve.Lower ~horizon ~window:cycle g

let service_bounded_delay ~horizon ~delay ~rate =
  if delay < 0 then invalid_arg "Rtc.Workload.service_bounded_delay: delay < 0";
  let num, den = rate in
  (* floor ((dt - delay) * num / den) is superadditive in dt and grows by
     exactly floor (y * num / den) at least when the horizon advances by
     y, so the raw anchor is already certified *)
  Curve.create ~kind:Curve.Lower ~horizon ~tail_rate:rate (fun dt ->
    if dt <= delay then 0 else (dt - delay) * num / den)

let service_delayed ~blocking beta =
  if blocking < 0 then
    invalid_arg "Rtc.Workload.service_delayed: negative blocking";
  Curve.shift_right blocking beta
