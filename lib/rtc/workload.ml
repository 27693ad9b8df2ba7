module Count = Timebase.Count
module Stream = Event_model.Stream
module Delta = Event_model.Curve

(* The arrival tables [scale * eta dt] on 0..horizon, each built in one
   forward walk over a distance curve: both
   eta_plus dt = max {n | delta_min n < dt} and
   eta_minus dt = min {n >= 0 | delta_plus (n + 2) > dt} only grow with
   dt, so the event index [n] advances while the distance [next] it
   reads still fits in the window, and each distance is read once.  The
   windows with an infinite inversion are exactly those from the first
   one on, so one probe at [horizon] decides the error up front — and
   bounds the walk. *)
let walk ~horizon ~scale ~strict ~offset curve =
  let table = Array.make (horizon + 1) 0 in
  (* the first distance read is at index 2: distances of n <= 1 events
     are zero and fit in every non-empty window *)
  let n = ref (2 - offset) in
  let next = ref (Delta.eval_packed curve (!n + offset)) in
  for dt = 1 to horizon do
    while if strict then !next < dt else !next <= dt do
      incr n;
      next := Delta.eval_packed curve (!n + offset)
    done;
    table.(dt) <- scale * !n
  done;
  (* one distance read for the start and one per index step *)
  Obs.Metrics.add Stats.eta_walk_steps (!n - 1 + offset);
  table

(* eta_plus: walk n from 1 (every non-empty window holds one event) while
   delta_min (n + 1) < dt *)
let eta_plus_table ~horizon ~scale stream =
  (match Stream.eta_plus stream horizon with
   | Count.Fin _ -> ()
   | Count.Inf -> invalid_arg "Rtc.Workload: unbounded arrivals");
  walk ~horizon ~scale ~strict:true ~offset:1 (Stream.delta_min_curve stream)

(* eta_minus: walk n from 0 while delta_plus (n + 2) <= dt *)
let eta_minus_table ~horizon ~scale stream =
  (match Stream.eta_minus stream horizon with
   | Count.Fin _ -> ()
   | Count.Inf -> invalid_arg "Rtc.Workload: infinite guaranteed arrivals");
  walk ~horizon ~scale ~strict:false ~offset:2 (Stream.delta_plus_curve stream)

(* Tail-rate window selection: [certified] uses rate (g.(window) / window),
   so the window that minimises (Upper) or maximises (Lower) that
   fraction gives the tightest provable tail.  Scanning a bounded
   candidate range keeps tail denominators small (they drive the lcm
   periods of every downstream (min,+) certification); ties prefer the
   smaller window for the same reason. *)
let pick_window ~horizon ~better g =
  let limit = Stdlib.min horizon 128 in
  let best = ref 1 and best_v = ref g.(1) in
  let consider w =
    let v = g.(w) in
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

let arrival_upper ~horizon ~wcet stream =
  if wcet < 1 then invalid_arg "Rtc.Workload.arrival_upper: wcet < 1";
  if horizon < 1 then invalid_arg "Rtc.Workload.arrival_upper: horizon < 1";
  let table = eta_plus_table ~horizon ~scale:wcet stream in
  (* eta_plus is subadditive (any window splits into two), so the
     slack-anchor tail of [certified] is sound at every point past the
     horizon — unlike a window-difference estimate, which can undershoot
     the true long-run rate and eventually dip below eta_plus * wcet. *)
  let window = pick_window ~horizon ~better:( < ) table in
  Curve.certified ~kind:Curve.Upper ~window table

let arrival_lower ~horizon ~bcet stream =
  if bcet < 1 then invalid_arg "Rtc.Workload.arrival_lower: bcet < 1";
  if horizon < 1 then invalid_arg "Rtc.Workload.arrival_lower: horizon < 1";
  let table = eta_minus_table ~horizon ~scale:bcet stream in
  (* eta_minus is superadditive (worst windows concatenate), dual of the
     upper case: a window-difference estimate can overshoot the long-run
     guaranteed rate and eventually promise more arrivals than the
     stream guarantees.  Streams with no lower bound get g = 0 on the
     whole candidate range, hence a certified zero tail. *)
  let window = pick_window ~horizon ~better:( > ) table in
  Curve.certified ~kind:Curve.Lower ~window table

let service_full ~horizon =
  Curve.linear ~kind:Curve.Lower ~horizon ~rate:(1, 1)

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
  Curve.certified ~kind:Curve.Lower ~window:cycle (Array.init (horizon + 1) g)

let service_delayed ~blocking beta =
  if blocking < 0 then
    invalid_arg "Rtc.Workload.service_delayed: negative blocking";
  Curve.shift_right blocking beta
