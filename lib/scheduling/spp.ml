module Interval = Timebase.Interval
module Stream = Event_model.Stream

(* Completion time of the q-th activation within the level-i busy
   period: least fixed point of w = q C+ + interference(w).

   The higher-priority set is snapshot once per analysed task (not once
   per q), the interference queries go through the resumable
   [Busy_window.Demand] kernel, and the fixpoint for the q-th activation
   warm-starts at the (q-1)-th completion [w'].  Warm start is sound:
   the window equation [f_q] is monotone with
   [f_q w' = own_q - own_(q-1) + w' >= w'] (since [w'] is the previous
   fixpoint of the same demand term and [own] grows by [C+] per q), so
   iterating from [w'] still reaches the least fixed point of [f_q] —
   every iterate stays [<= lfp] — while skipping the ramp-up from
   [own_q].  Query windows therefore never decrease across the whole
   busy period, which is exactly the hint contract of [Demand].  The
   cold-start iteration from [own_q] is the differential reference in
   [Verify.Reference]. *)
let make_finish ~task ~others =
  let hp = Busy_window.higher_priority ~than:task others in
  let demand = Busy_window.Demand.make hp in
  let c_plus = Interval.hi task.Rt_task.cet in
  let prev = ref 0 in
  fun q ->
    let own = q * c_plus in
    let diverged = ref false in
    let step w =
      match Busy_window.Demand.eval demand ~window:w with
      | Ok d -> own + d
      | Error _ ->
        diverged := true;
        w
    in
    match
      Busy_window.fixpoint ~limit:Busy_window.default_window_limit
        ~init:(Stdlib.max own !prev) step
    with
    | Some w when not !diverged ->
      prev := w;
      Some w
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
