module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Busy_window = Scheduling.Busy_window

type policy =
  | Spp
  | Spnp
  | Tdma
  | Round_robin

type item = {
  name : string;
  cet : Interval.t;
  priority : int;
  service : int option;
  activation : Stream.t;
}

type output_key = {
  upper : Rtc.Curve.t;
  lower : Rtc.Curve.t;
  jitter : int;
  wcet : int;
  bcet : int;
}

let output_key_equal a b =
  a.jitter = b.jitter && a.wcet = b.wcet && a.bcet = b.bcet
  && Rtc.Curve.equal a.upper b.upper
  && Rtc.Curve.equal a.lower b.lower

type outcome = {
  name : string;
  response : Busy_window.outcome;
  output : (Stream.t * output_key) option;
}

let default_horizon policy items =
  let span =
    List.fold_left
      (fun acc it ->
        match Time.to_int_opt (Stream.delta_min it.activation 33) with
        | Some d -> Stdlib.max acc d
        | None -> acc)
      0 items
  in
  let demand =
    List.fold_left (fun acc it -> acc + Interval.hi it.cet) 0 items
  in
  let cycle =
    match policy with
    | Tdma | Round_robin ->
      List.fold_left
        (fun acc it -> acc + Option.value ~default:1 it.service)
        0 items
    | Spp | Spnp -> 0
  in
  Stdlib.min 4096 (Stdlib.max 128 (span + (2 * demand) + (8 * cycle)))

(* Item reuse.  The global analysis re-analyses a whole resource when
   any one of its items' inputs moved, so many items of a later
   iteration see the same inputs as in an earlier one.  The cache
   keeps, per item name, the last arrival curves with the activation,
   horizon and CET they were built from, and the last outcome with the arrival
   curves, service curve and CET it was built from.  Each entry is a
   pure function of what is stored next to it (and of the item's name,
   the key; names are unique per spec, [Spec.validate]):

   - [Convert.of_stream] reads only the activation, the horizon and the
     CET, and streams are immutable values, so the same stream ([==])
     gives the same curves;
   - [gpc_item] reads only the two arrival curves, the service curve
     and the CET.  [Rtc.Curve.equal] is representation equality
     (kind, samples, tail rate, tail offset), which is everything a
     kernel reads, so equal curves give the same GPC result and the same
     output stream.

   A hit therefore returns exactly what recomputing would; only the
   work counters differ.  Escalation rounds miss, since the horizon is
   part of every key.  The remaining-service folds are not kept: they
   are cheap next to the GPC step, and they are what would make the
   cache large. *)
type curves_entry = {
  c_activation : Stream.t;
  c_horizon : int;
  c_cet : Interval.t;
  curves : (Convert.curves, string) result;
}

type outcome_entry = {
  o_upper : Rtc.Curve.t;
  o_lower : Rtc.Curve.t;
  o_service : Rtc.Curve.t;
  o_cet : Interval.t;
  outcome : outcome;
}

type cache = {
  item_curves : (string, curves_entry) Hashtbl.t;
  item_outcomes : (string, outcome_entry) Hashtbl.t;
}

let cache () =
  { item_curves = Hashtbl.create 16; item_outcomes = Hashtbl.create 16 }

let same_curve a b = a == b || Rtc.Curve.equal a b

(* Arrival curves of one item, or the reason none exist (activations
   admitting unboundedly many events in a finite window). *)
let item_curves cache ~horizon (it : item) =
  match Hashtbl.find_opt cache.item_curves it.name with
  | Some e
    when e.c_activation == it.activation
         && e.c_horizon = horizon
         && Interval.equal e.c_cet it.cet -> e.curves
  | Some _ | None ->
    let curves =
      match
        Convert.of_stream ~horizon ~wcet:(Interval.hi it.cet)
          ~bcet:(Interval.lo it.cet) it.activation
      with
      | curves -> Ok curves
      | exception Invalid_argument reason -> Error reason
    in
    Hashtbl.replace cache.item_curves it.name
      { c_activation = it.activation; c_horizon = horizon; c_cet = it.cet;
        curves };
    curves

let unbounded name reason = { name; response = Busy_window.Unbounded reason; output = None }

(* GPC bounds for one item given its guaranteed service: the RTC delay
   covers queueing and processing, so it is the worst-case response; the
   best case is the best-case demand, as in the busy-window analyses.
   The output stream couples back into CPA: its upper bound is the GPC
   output curve, its lower bound the input's guaranteed demand delayed
   by the response jitter (an event arriving at [t] departs within
   [t + [bcet : delay]], so departures in a window of [dt] are at least
   the arrivals in a window of [dt - (delay - bcet)]).  That shift is
   applied in the pseudo-inversion, not to a copy of the curve. *)
let gpc_item ~(curves : Convert.curves) ~service (it : item) =
  let result =
    Rtc.Gpc.process ~arrival_upper:curves.Convert.upper ~service_lower:service
  in
  match result.Rtc.Gpc.delay, result.Rtc.Gpc.output_upper with
  | Some delay, Some upper ->
    let wcet = Interval.hi it.cet and bcet = Interval.lo it.cet in
    let jitter = Stdlib.max 0 (delay - bcet) in
    let lower = curves.Convert.lower in
    let output =
      Convert.to_stream_delayed ~name:(it.name ^ ".out") ~wcet ~bcet ~upper
        ~lower:(Some lower) ~lower_delay:jitter
    in
    {
      name = it.name;
      response = Busy_window.Bounded (Interval.make ~lo:bcet ~hi:delay);
      output = Some (output, { upper; lower; jitter; wcet; bcet });
    }
  | _ ->
    unbounded it.name
      (Printf.sprintf "rtc: arrival rate of %s exceeds its guaranteed service"
         it.name)

(* [gpc_item] unless the item's last outcome was built from the same
   curves and CET (see the cache above). *)
let process_item cache ~(curves : Convert.curves) ~service (it : item) =
  match Hashtbl.find_opt cache.item_outcomes it.name with
  | Some e
    when Interval.equal e.o_cet it.cet
         && same_curve e.o_upper curves.Convert.upper
         && same_curve e.o_lower curves.Convert.lower
         && same_curve e.o_service service ->
    Obs.Metrics.incr Rtc.Stats.items_reused;
    e.outcome
  | Some _ | None ->
    let outcome = gpc_item ~curves ~service it in
    Hashtbl.replace cache.item_outcomes it.name
      { o_upper = curves.Convert.upper; o_lower = curves.Convert.lower;
        o_service = service; o_cet = it.cet; outcome };
    outcome

(* Static priorities: each item's service is what remains of the full
   resource after greedily serving every interferer (equal priorities
   interfere, as in [Busy_window.higher_priority]); SPNP first delays
   the whole resource by the longest lower-priority execution, which
   blocks the item and its interferers alike.

   Every item's fold starts from the base delayed by its blocking term
   and serves its interferers in list order, so items whose interferer
   lists start alike share partial folds: in a system listed by priority
   the k-th item's service extends the (k-1)-th's.  Each partial fold is
   computed once per blocking term and prefix; sharing the curve is
   exact, since the same fold of the same curves gives the same one. *)
let analyse_static cache ~horizon ~blocking items =
  let base = Rtc.Workload.service_full ~horizon in
  let curves =
    List.mapi (fun i it -> i, it, item_curves cache ~horizon it) items
  in
  let folds = Hashtbl.create 16 in
  let fold key compute =
    match Hashtbl.find_opt folds key with
    | Some beta -> beta
    | None ->
      let beta = compute () in
      Hashtbl.add folds key beta;
      beta
  in
  let rec serve (b, prefix) beta = function
    | [] -> Ok beta
    | (i, (other : item), other_curves) :: rest -> (
      match other_curves with
      | Error reason ->
        Error (Printf.sprintf "interferer %s: %s" other.name reason)
      | Ok (c : Convert.curves) ->
        let key = b, i :: prefix in
        let beta =
          fold key (fun () ->
              Rtc.Gpc.remaining_service ~arrival_upper:c.Convert.upper
                ~service_lower:beta)
        in
        serve key beta rest)
  in
  List.map
    (fun (_, (it : item), own) ->
      match own with
      | Error reason -> unbounded it.name ("rtc: " ^ reason)
      | Ok own -> begin
        let interferers =
          List.filter
            (fun (_, (other : item), _) ->
              other != it && other.priority <= it.priority)
            curves
        in
        let b =
          if not blocking then 0
          else
            List.fold_left
              (fun acc (other : item) ->
                if other.priority > it.priority then
                  Stdlib.max acc (Interval.hi other.cet)
                else acc)
              0 items
        in
        let blocked =
          fold (b, []) (fun () ->
              if b = 0 then base
              else Rtc.Workload.service_delayed ~blocking:b base)
        in
        match serve (b, []) blocked interferers with
        | Error reason -> unbounded it.name ("rtc: " ^ reason)
        | Ok service -> process_item cache ~curves:own ~service it
      end)
    curves

(* Slot-based policies isolate items from each other: every item gets
   the certified TDMA lower service of its own slot in the full cycle.
   Round robin is bounded the same way — in the worst case every other
   item spends its full quantum, which is exactly a TDMA cycle. *)
let analyse_slotted cache ~horizon items =
  let slot_of it =
    match it.service with
    | Some s when s >= 1 -> s
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "Hybrid.Local: item %s needs a service parameter"
           it.name)
  in
  let cycle = List.fold_left (fun acc it -> acc + slot_of it) 0 items in
  List.map
    (fun it ->
      match item_curves cache ~horizon it with
      | Error reason -> unbounded it.name ("rtc: " ^ reason)
      | Ok curves ->
        let service =
          Rtc.Workload.service_tdma ~horizon ~slot:(slot_of it) ~cycle
        in
        process_item cache ~curves ~service it)
    items

let bounded r =
  match r.response with
  | Busy_window.Bounded _ -> true
  | Busy_window.Unbounded _ -> false

(* Escalating horizon: curve operations are near-linear in the sampled
   range, so start small and only grow (towards the certified-tail
   target) while some outcome is still unbounded — a short horizon is
   sound at every step, it can only be looser.  Most systems bound every
   item in the first round. *)
let analyse ?cache:c ~policy items =
  let c = match c with Some c -> c | None -> cache () in
  let run horizon =
    match policy with
    | Spp -> analyse_static c ~horizon ~blocking:false items
    | Spnp -> analyse_static c ~horizon ~blocking:true items
    | Tdma | Round_robin -> analyse_slotted c ~horizon items
  in
  let target = default_horizon policy items in
  let rec go h =
    let results = run h in
    if h >= target || List.for_all bounded results then results
    else go (Stdlib.min target (4 * h))
  in
  go (Stdlib.min target 256)
