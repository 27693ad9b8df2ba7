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

type outcome = {
  name : string;
  response : Busy_window.outcome;
  output : Stream.t option;
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
   the arrivals in a window of [dt - (delay - bcet)]). *)
let process_item ~(curves : Convert.curves) ~service it =
  let result =
    Rtc.Gpc.process ~arrival_upper:curves.Convert.upper ~service_lower:service
  in
  match result.Rtc.Gpc.delay, result.Rtc.Gpc.output_upper with
  | Some delay, Some output_upper ->
    let bcet = Interval.lo it.cet in
    let jitter = Stdlib.max 0 (delay - bcet) in
    let output_lower =
      if jitter = 0 then curves.Convert.lower
      else Rtc.Workload.service_delayed ~blocking:jitter curves.Convert.lower
    in
    let output =
      Convert.to_stream ~name:(it.name ^ ".out") ~wcet:(Interval.hi it.cet)
        ~bcet ~upper:output_upper ~lower:(Some output_lower)
    in
    {
      name = it.name;
      response = Busy_window.Bounded (Interval.make ~lo:bcet ~hi:delay);
      output = Some output;
    }
  | _ ->
    unbounded it.name
      (Printf.sprintf "rtc: arrival rate of %s exceeds its guaranteed service"
         it.name)

(* Static priorities: each item's service is what remains of the full
   resource after greedily serving every interferer (equal priorities
   interfere, as in [Busy_window.higher_priority]); SPNP first delays
   the whole resource by the longest lower-priority execution, which
   blocks the item and its interferers alike. *)
let analyse_static ~horizon ~blocking items =
  let base = Rtc.Workload.service_full ~horizon in
  let curves = List.map (fun it -> it, item_curves ~horizon it) items in
  List.map
    (fun ((it : item), own) ->
      match own with
      | Error reason -> unbounded it.name ("rtc: " ^ reason)
      | Ok own -> begin
        let interferers =
          List.filter
            (fun ((other : item), _) ->
              other != it && other.priority <= it.priority)
            curves
        in
        let blocked =
          if not blocking then Ok base
          else
            match
              List.fold_left
                (fun acc (other : item) ->
                  if other.priority > it.priority then
                    Stdlib.max acc (Interval.hi other.cet)
                  else acc)
                0 items
            with
            | 0 -> Ok base
            | b -> Ok (Rtc.Workload.service_delayed ~blocking:b base)
        in
        let service =
          List.fold_left
            (fun acc ((other : item), other_curves) ->
              match acc, other_curves with
              | Error _, _ -> acc
              | Ok _, Error reason ->
                Error
                  (Printf.sprintf "interferer %s: %s" other.name reason)
              | Ok beta, Ok (c : Convert.curves) ->
                Ok
                  (Rtc.Gpc.remaining_service ~arrival_upper:c.Convert.upper
                     ~service_lower:beta))
            blocked interferers
        in
        match service with
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
