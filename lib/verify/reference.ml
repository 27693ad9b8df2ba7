module Es = Event_model.Stream
module Time = Timebase.Time
module Count = Timebase.Count
module Interval = Timebase.Interval
module Busy = Scheduling.Busy_window
module Rt_task = Scheduling.Rt_task
module Edf = Scheduling.Edf

(* ------------------------------------------------------------------ *)
(* eqs 3-4: OR-combination *)

let or_pair a b =
  let delta_min n =
    let rec scan k best =
      if k > n then best
      else
        scan (k + 1)
          (Time.min best (Time.max (Es.delta_min a k) (Es.delta_min b (n - k))))
    in
    scan 1 (Time.max (Es.delta_min a 0) (Es.delta_min b n))
  in
  let g s k = Es.delta_plus s (k + 2) in
  let delta_plus n =
    let budget = n - 2 in
    let rec scan k best =
      if k > budget then best
      else scan (k + 1) (Time.max best (Time.min (g a k) (g b (budget - k))))
    in
    scan 1 (Time.min (g a 0) (g b budget))
  in
  Es.make ~name:"reference-or" ~delta_min ~delta_plus

let or_combine = function
  | [] -> invalid_arg "Reference.or_combine: empty stream list"
  | first :: rest -> List.fold_left or_pair first rest

(* ------------------------------------------------------------------ *)
(* Theta_tau *)

let task_output ~response s =
  let r_minus = Time.of_int (Interval.lo response)
  and spread = Time.of_int (Interval.width response) in
  let delta_min n =
    let rec go k prev =
      if k > n then prev
      else
        go (k + 1)
          (Time.max
             (Time.sub_clamped (Es.delta_min s k) spread)
             (Time.add prev r_minus))
    in
    go 2 Time.zero
  in
  let delta_plus n = Time.add (Es.delta_plus s n) spread in
  Es.make ~name:"reference-out" ~delta_min ~delta_plus

(* ------------------------------------------------------------------ *)
(* busy windows: cold-start fixpoints over [Busy_window.interference] *)

let window_limit = Busy.default_window_limit

(* least fixpoint of [w = own + demand (w + lag)]; [None] on divergence
   or unbounded arrivals *)
let cold_fixpoint ~tasks ~own ~lag =
  let diverged = ref false in
  let step w =
    match Busy.interference ~tasks ~window:(w + lag) with
    | Ok demand -> own + demand
    | Error _ ->
      diverged := true;
      w
  in
  match Busy.fixpoint ~limit:window_limit ~init:own step with
  | Some w when not !diverged -> Some w
  | Some _ | None -> None

let spp_finish ~task ~others q =
  cold_fixpoint
    ~tasks:(Busy.higher_priority ~than:task others)
    ~own:(q * Interval.hi task.Rt_task.cet)
    ~lag:0

let spnp_finish ~task ~others q =
  let c_plus = Interval.hi task.Rt_task.cet in
  let blocking =
    List.fold_left
      (fun acc (t : Rt_task.t) -> Stdlib.max acc (Interval.hi t.cet))
      0
      (Busy.lower_priority ~than:task others)
  in
  cold_fixpoint
    ~tasks:(Busy.higher_priority ~than:task others)
    ~own:(blocking + ((q - 1) * c_plus))
    ~lag:1
  |> Option.map (fun start -> start + c_plus)

let response ?record ~finish (task : Rt_task.t) =
  Busy.max_response ~label:task.name ?record ~best_case:(Interval.lo task.cet)
    ~arrival:(Es.delta_min task.activation) ~finish ()

let backlog ~finish task =
  Busy.backlog task (fun record -> response ~record ~finish task)

let spp_response_time ~task ~others () =
  response ~finish:(spp_finish ~task ~others) task

let spp_backlog_bound ~task ~others () =
  backlog ~finish:(spp_finish ~task ~others) task

let spnp_response_time ~task ~others () =
  response ~finish:(spnp_finish ~task ~others) task

let spnp_backlog_bound ~task ~others () =
  backlog ~finish:(spnp_finish ~task ~others) task

let edf_busy_period tasks =
  let rt_tasks = List.map (fun (t : Edf.task) -> t.task) tasks in
  let failure = ref None in
  let step w =
    match Busy.interference ~tasks:rt_tasks ~window:w with
    | Ok demand -> Stdlib.max 1 demand
    | Error reason ->
      failure := Some reason;
      w
  in
  match Busy.fixpoint ~limit:window_limit ~init:1 step with
  | Some l when !failure = None -> Ok l
  | Some _ -> Error (Option.get !failure)
  | None -> Error "busy period diverges (overload)"

let edf_schedulable tasks =
  match edf_busy_period tasks with
  | Error _ as e -> e
  | Ok l ->
    let rec scan dt =
      if dt > l then Ok ()
      else
        match Edf.demand_bound tasks dt with
        | Ok d when d <= dt -> scan (dt + 1)
        | Ok d ->
          Error
            (Printf.sprintf "demand %d exceeds window %d (busy period %d)" d dt
               l)
        | Error _ as e -> e
    in
    scan 1

(* ------------------------------------------------------------------ *)
(* naive stream models and linear-scan pseudo-inversions *)

let naive_periodic ~period =
  let d n = Time.of_int ((n - 1) * period) in
  Es.make ~name:"naive" ~delta_min:d ~delta_plus:d

let naive_jitter ~period ~jitter ~d_min =
  Es.make ~name:"naive"
    ~delta_min:(fun n ->
      Time.of_int
        (Stdlib.max ((n - 1) * d_min) (((n - 1) * period) - jitter)))
    ~delta_plus:(fun n -> Time.of_int (((n - 1) * period) + jitter))

let naive_burst ~period ~burst ~d_min =
  let position j = ((j / burst) * period) + (j mod burst * d_min) in
  let over_starts n pick =
    let rec scan j acc =
      if j >= burst then acc
      else scan (j + 1) (pick acc (position (j + n - 1) - position j))
    in
    scan 1 (position (n - 1) - position 0)
  in
  Es.make ~name:"naive"
    ~delta_min:(fun n -> Time.of_int (over_starts n Stdlib.min))
    ~delta_plus:(fun n -> Time.of_int (over_starts n Stdlib.max))

let naive_sporadic ~d_min =
  Es.make ~name:"naive"
    ~delta_min:(fun n -> Time.of_int ((n - 1) * d_min))
    ~delta_plus:(fun _ -> Time.Inf)

let scan_eta_plus s dt =
  if dt <= 0 then Count.zero
  else begin
    let t = Time.of_int dt in
    let rec scan n =
      if n > 8192 then Count.Inf
      else if Time.(Es.delta_min s n < t) then scan (n + 1)
      else Count.of_int (n - 1)
    in
    scan 1
  end

let scan_eta_minus s dt =
  let t = Time.of_int dt in
  let rec scan n =
    if n > 8192 then Count.Inf
    else if Time.(Es.delta_plus s (n + 2) > t) then Count.of_int n
    else scan (n + 1)
  in
  scan 0
