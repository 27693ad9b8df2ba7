module Interval = Timebase.Interval
module Stream = Event_model.Stream

type slot = {
  task : Rt_task.t;
  length : int;
}

let cycle_length slots =
  List.fold_left (fun acc s -> acc + s.length) 0 slots

let service ~slot ~cycle w =
  let effective = w - (cycle - slot) in
  if effective <= 0 then 0
  else ((effective / cycle) * slot) + Stdlib.min slot (effective mod cycle)

(* Least window w with service w >= demand, by exponential + binary
   search over the monotone service bound. *)
let invert_service ~slot ~cycle ~limit demand =
  if demand <= 0 then Some 0
  else begin
    let rec widen w = if service ~slot ~cycle w >= demand then Some w
      else if w > limit then None
      else widen (w * 2)
    in
    match widen 1 with
    | None -> None
    | Some hi ->
      let rec bisect lo hi =
        if hi - lo <= 1 then hi
        else
          let mid = lo + ((hi - lo) / 2) in
          if service ~slot ~cycle mid >= demand then bisect lo mid
          else bisect mid hi
      in
      Some (if service ~slot ~cycle 1 >= demand then 1 else bisect 1 hi)
  end

(* Best-case completion: the activation lands exactly on the task's slot
   start, consuming [k] complete slots plus a final partial one. *)
let best_case ~slot ~cycle c =
  let k = (c - 1) / slot in
  (k * cycle) + (c - (k * slot))

let response_time ~slots ~task () =
  let own =
    match List.find_opt (fun s -> s.task == task) slots with
    | Some s -> s
    | None ->
      raise
        (Guard.Error.Error
           (Guard.Error.Invalid_spec
              {
                reason =
                  Printf.sprintf "Tdma: task %s owns no slot"
                    task.Rt_task.name;
              }))
  in
  if own.length < 1 then
    raise
      (Guard.Error.Error
         (Guard.Error.Invalid_spec
            {
              reason =
                Printf.sprintf "Tdma: slot length of %s < 1"
                  task.Rt_task.name;
            }));
  let cycle = cycle_length slots in
  let c_plus = Interval.hi task.Rt_task.cet in
  let finish q =
    invert_service ~slot:own.length ~cycle
      ~limit:Busy_window.default_window_limit (q * c_plus)
  in
  Busy_window.max_response ~label:task.Rt_task.name
    ~best_case:(best_case ~slot:own.length ~cycle (Interval.lo task.Rt_task.cet))
    ~arrival:(Stream.delta_min task.Rt_task.activation)
    ~finish ()

let analyse slots =
  List.map (fun s -> s.task, response_time ~slots ~task:s.task ()) slots
