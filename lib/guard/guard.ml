module Error = Error
module Inject = Inject

type t = {
  is_active : bool;
  cancelled : bool Atomic.t;
  rel_deadline_ms : float;  (* as requested, for reporting; infinity = none *)
  deadline_us : float;  (* absolute trip point on [Obs.Clock] *)
  budget_limit : int;  (* as requested; max_int = none *)
  budget_left : int Atomic.t;
  tripped : Error.t option Atomic.t;  (* sticky first trip *)
}

let none =
  {
    is_active = false;
    cancelled = Atomic.make false;
    rel_deadline_ms = infinity;
    deadline_us = infinity;
    budget_limit = max_int;
    budget_left = Atomic.make max_int;
    tripped = Atomic.make None;
  }

let create ?deadline_ms ?budget () =
  let rel_deadline_ms = Option.value deadline_ms ~default:infinity in
  let budget_limit = Option.value budget ~default:max_int in
  {
    is_active = true;
    cancelled = Atomic.make false;
    rel_deadline_ms;
    deadline_us =
      (if rel_deadline_ms = infinity then infinity
       else Obs.Clock.now_us () +. (rel_deadline_ms *. 1e3));
    budget_limit;
    budget_left = Atomic.make budget_limit;
    tripped = Atomic.make None;
  }

let active g = g.is_active
let cancel g = Atomic.set g.cancelled true

let deadline_ms g =
  if g.rel_deadline_ms = infinity then None else Some g.rel_deadline_ms

let budget g = if g.budget_limit = max_int then None else Some g.budget_limit

let c_cancelled = Obs.Metrics.counter "guard.trips.cancelled"
let c_deadline = Obs.Metrics.counter "guard.trips.deadline"
let c_budget = Obs.Metrics.counter "guard.trips.budget"

let record_trip g reason =
  (* The first trip wins and is the only one reported through obs, so
     a token polled from several domains tells one coherent story. *)
  if Atomic.compare_and_set g.tripped None (Some reason) then begin
    (match reason with
    | Error.Cancelled -> Obs.Metrics.incr c_cancelled
    | Error.Deadline_exceeded _ -> Obs.Metrics.incr c_deadline
    | Error.Budget_exhausted _ -> Obs.Metrics.incr c_budget
    | _ -> ());
    if Obs.Trace.enabled () then
      Obs.Trace.instant "guard.trip"
        ~attrs:[ ("reason", Obs.Event.Str (Error.to_string reason)) ]
  end;
  match Atomic.get g.tripped with Some r -> r | None -> reason

let poll g =
  if not g.is_active then None
  else
    match Atomic.get g.tripped with
    | Some _ as r -> r
    | None ->
      if Atomic.get g.cancelled then Some (record_trip g Error.Cancelled)
      else if Atomic.get g.budget_left <= 0 then
        Some (record_trip g (Error.Budget_exhausted { budget = g.budget_limit }))
      else if Obs.Clock.now_us () > g.deadline_us then
        Some
          (record_trip g
             (Error.Deadline_exceeded { deadline_ms = g.rel_deadline_ms }))
      else None

let check g =
  match poll g with None -> () | Some r -> raise (Error.Error r)

let spend g cost =
  if g.is_active then begin
    if g.budget_limit <> max_int then
      ignore (Atomic.fetch_and_add g.budget_left (-cost));
    check g
  end

let consumed g =
  if g.budget_limit = max_int then 0
  else Stdlib.max 0 (g.budget_limit - Atomic.get g.budget_left)

let slack_ms g =
  if g.deadline_us = infinity then None
  else Some ((g.deadline_us -. Obs.Clock.now_us ()) /. 1e3)

let h_slack = Obs.Hist.hist "guard.deadline_slack_us"
let h_consumed = Obs.Hist.hist "guard.budget_consumed"

let observe_completion g =
  if g.is_active && Obs.Hist.enabled () then begin
    if g.deadline_us <> infinity then begin
      let slack_us = g.deadline_us -. Obs.Clock.now_us () in
      Obs.Hist.record h_slack
        (int_of_float (if slack_us < 0.0 then 0.0 else slack_us))
    end;
    if g.budget_limit <> max_int then Obs.Hist.record h_consumed (consumed g)
  end

let key = Domain.DLS.new_key (fun () -> none)
let ambient () = Domain.DLS.get key

let with_ambient g f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key g;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let tick ?(cost = 1) () =
  let g = Domain.DLS.get key in
  if g.is_active then spend g cost
