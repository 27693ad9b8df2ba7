module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream

type share = {
  task : Rt_task.t;
  quantum : int;
}

let response_time ~shares ~task () =
  let own =
    match List.find_opt (fun s -> s.task == task) shares with
    | Some s -> s
    | None ->
      raise
        (Guard.Error.Error
           (Guard.Error.Invalid_spec
              {
                reason =
                  Printf.sprintf "Round_robin: task %s has no share"
                    task.Rt_task.name;
              }))
  in
  if own.quantum < 1 then
    raise
      (Guard.Error.Error
         (Guard.Error.Invalid_spec
            {
              reason =
                Printf.sprintf "Round_robin: quantum of %s < 1"
                  task.Rt_task.name;
            }));
  let others = List.filter (fun s -> s.task != task) shares in
  let c_plus = Interval.hi task.Rt_task.cet in
  let finish q =
    let demand = q * c_plus in
    let rounds = (demand + own.quantum - 1) / own.quantum in
    let interference_of w (s : share) =
      match Stream.eta_plus s.task.Rt_task.activation w with
      | Count.Fin n ->
        Stdlib.min (n * Interval.hi s.task.Rt_task.cet) (rounds * s.quantum)
      | Count.Inf ->
        (* the quantum bound still applies *)
        rounds * s.quantum
    in
    let step w =
      demand + List.fold_left (fun acc s -> acc + interference_of w s) 0 others
    in
    Busy_window.fixpoint ~limit:Busy_window.default_window_limit ~init:demand
      step
  in
  Busy_window.max_response ~label:task.Rt_task.name
    ~best_case:(Interval.lo task.Rt_task.cet)
    ~arrival:(Stream.delta_min task.Rt_task.activation)
    ~finish ()

let analyse shares =
  List.map (fun s -> s.task, response_time ~shares ~task:s.task ()) shares
