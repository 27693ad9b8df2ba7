module Interval = Timebase.Interval
module Stream = Event_model.Stream

let blocking ~task ~others =
  Busy_window.lower_priority ~than:task others
  |> List.fold_left
       (fun acc (t : Rt_task.t) -> Stdlib.max acc (Interval.hi t.cet))
       0

(* Completion of the q-th instance: it starts once blocking, the q-1 own
   predecessors, and all higher-priority arrivals (up to and including the
   start instant) are served, then transmits non-preemptively.

   Blocking and the higher-priority snapshot are hoisted out of the per-q
   loop, interference goes through the resumable [Busy_window.Demand]
   kernel, and the start-time fixpoint for q warm-starts at the (q-1)-th
   start time (sound for the same reason as in [Spp]: the queued-own term
   grows by [C+] per q, so the previous fixpoint satisfies
   [f_q w' = w' + C+ >= w'] and iteration from it still converges to the
   least fixed point).  The cold-start iteration is the differential
   reference in [Verify.Reference]. *)
let make_finish ~task ~others =
  let hp = Busy_window.higher_priority ~than:task others in
  let demand = Busy_window.Demand.make hp in
  let c_plus = Interval.hi task.Rt_task.cet in
  let block = blocking ~task ~others in
  let prev = ref 0 in
  fun q ->
    let own_queued = block + ((q - 1) * c_plus) in
    let diverged = ref false in
    let step w =
      match Busy_window.Demand.eval demand ~window:(w + 1) with
      | Ok d -> own_queued + d
      | Error _ ->
        diverged := true;
        w
    in
    match
      Busy_window.fixpoint ~limit:Busy_window.default_window_limit
        ~init:(Stdlib.max own_queued !prev) step
    with
    | Some start when not !diverged ->
      prev := start;
      Some (start + c_plus)
    | Some _ | None -> None

let response_time ?record ~task ~others () =
  Busy_window.max_response ~label:task.Rt_task.name ?record
    ~best_case:(Interval.lo task.Rt_task.cet)
    ~arrival:(Stream.delta_min task.Rt_task.activation)
    ~finish:(make_finish ~task ~others)
    ()

let backlog_bound ~task ~others () =
  Busy_window.backlog task (fun record ->
      response_time ~record ~task ~others ())

let analyse tasks =
  List.map
    (fun (task, outcome, _) -> task, outcome)
    (Busy_window.per_task ~profiled:false response_time tasks)

let analyse_profiled tasks =
  Busy_window.per_task ~profiled:true response_time tasks
