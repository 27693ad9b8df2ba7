module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream

type task = {
  task : Rt_task.t;
  deadline : int;
}

let check_tasks tasks =
  List.iter
    (fun t ->
      if t.deadline < 1 then
        raise
          (Guard.Error.Error
             (Guard.Error.Invalid_spec
                {
                  reason =
                    Printf.sprintf "Edf: deadline of %s < 1"
                      t.task.Rt_task.name;
                })))
    tasks

let demand_bound tasks dt =
  let rec total = function
    | [] -> Ok 0
    | t :: rest ->
      if dt < t.deadline then total rest
      else begin
        match Stream.eta_plus t.task.Rt_task.activation (dt - t.deadline + 1) with
        | Count.Fin n -> begin
          match total rest with
          | Ok acc -> Ok (acc + (n * Interval.hi t.task.Rt_task.cet))
          | Error _ as e -> e
        end
        | Count.Inf ->
          Error
            (Printf.sprintf "unbounded arrivals of %s" t.task.Rt_task.name)
      end
  in
  total tasks

let busy_period tasks =
  check_tasks tasks;
  let rt_tasks = List.map (fun t -> t.task) tasks in
  let failure = ref None in
  (* resumable kernel: fixpoint windows only grow *)
  let demand = Busy_window.Demand.make rt_tasks in
  let step w =
    match Busy_window.Demand.eval demand ~window:w with
    | Ok d -> Stdlib.max 1 d
    | Error i ->
      failure :=
        Some
          (Printf.sprintf "unbounded arrivals of %s in window %d"
             (Busy_window.Demand.name demand i) w);
      w
  in
  match
    Busy_window.fixpoint ~limit:Busy_window.default_window_limit ~init:1 step
  with
  | Some l when !failure = None -> Ok l
  | Some _ -> Error (Option.get !failure)
  | None -> Error "busy period diverges (overload)"

(* Kernel variant of [demand_bound] for the schedulability scan: one SoA
   snapshot serves the whole [dt = 1 .. l] scan; per-task windows
   [dt - deadline + 1] grow with [dt], matching the resumable-hint
   contract. *)
let demand_bound_kernel tasks =
  let arr = Array.of_list tasks in
  let demand = Busy_window.Demand.make (List.map (fun t -> t.task) tasks) in
  fun dt ->
    let n = Array.length arr in
    let rec total i acc =
      if i >= n then Ok acc
      else begin
        let t = arr.(i) in
        if dt < t.deadline then total (i + 1) acc
        else begin
          match
            Busy_window.Demand.count demand ~i ~window:(dt - t.deadline + 1)
          with
          | -1 ->
            Error
              (Printf.sprintf "unbounded arrivals of %s" t.task.Rt_task.name)
          | c -> total (i + 1) (acc + (c * Interval.hi t.task.Rt_task.cet))
        end
      end
    in
    total 0 0

let schedulable tasks =
  check_tasks tasks;
  let run () =
    match busy_period tasks with
    | Error _ as e -> e
    | Ok l ->
      let demand = demand_bound_kernel tasks in
      let rec scan dt =
        if dt > l then Ok ()
        else begin
          match demand dt with
          | Ok d when d <= dt -> scan (dt + 1)
          | Ok d ->
            Error
              (Printf.sprintf "demand %d exceeds window %d (busy period %d)" d
                 dt l)
          | Error _ as e -> e
        end
      in
      scan 1
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "edf.schedulable"
      ~attrs:[ "tasks", Obs.Event.Int (List.length tasks) ]
      run
  else run ()

let analyse tasks =
  check_tasks tasks;
  let verdict = schedulable tasks in
  List.map
    (fun t ->
      let outcome =
        match verdict with
        | Ok () ->
          Busy_window.Bounded
            (Interval.make
               ~lo:(Interval.lo t.task.Rt_task.cet)
               ~hi:t.deadline)
        | Error reason -> Busy_window.Unbounded reason
      in
      t.task, outcome)
    tasks
