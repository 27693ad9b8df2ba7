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

(* Arrival curves of one item, or the reason none exist (activations
   admitting unboundedly many events in a finite window). *)
let item_curves ~horizon it =
  match
    Convert.of_stream ~horizon ~wcet:(Interval.hi it.cet)
      ~bcet:(Interval.lo it.cet) it.activation
  with
  | curves -> Ok curves
  | exception Invalid_argument reason -> Error reason

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
let process_item ~(curves : Convert.curves) ~service it =
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
let analyse_static ~horizon ~blocking items =
  let base = Rtc.Workload.service_full ~horizon in
  let curves = List.mapi (fun i it -> i, it, item_curves ~horizon it) items in
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
        | Ok service -> process_item ~curves:own ~service it
      end)
    curves

(* Slot-based policies isolate items from each other: every item gets
   the certified TDMA lower service of its own slot in the full cycle.
   Round robin is bounded the same way — in the worst case every other
   item spends its full quantum, which is exactly a TDMA cycle. *)
let analyse_slotted ~horizon items =
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
      match item_curves ~horizon it with
      | Error reason -> unbounded it.name ("rtc: " ^ reason)
      | Ok curves ->
        let service =
          Rtc.Workload.service_tdma ~horizon ~slot:(slot_of it) ~cycle
        in
        process_item ~curves ~service it)
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
let analyse ~policy items =
  let run horizon =
    match policy with
    | Spp -> analyse_static ~horizon ~blocking:false items
    | Spnp -> analyse_static ~horizon ~blocking:true items
    | Tdma | Round_robin -> analyse_slotted ~horizon items
  in
  let target = default_horizon policy items in
  let rec go h =
    let results = run h in
    if h >= target || List.for_all bounded results then results
    else go (Stdlib.min target (4 * h))
  in
  go (Stdlib.min target 256)
