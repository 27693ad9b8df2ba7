module Time = Timebase.Time
module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream

type outcome =
  | Bounded of Interval.t
  | Unbounded of string

let pp_outcome ppf = function
  | Bounded i -> Interval.pp ppf i
  | Unbounded reason -> Format.fprintf ppf "unbounded (%s)" reason

let response_interval = function
  | Bounded i -> Some i
  | Unbounded _ -> None

let default_window_limit = 1_000_000

(* cap on the activations examined in one busy period *)
let q_limit = 4096

(* Observability counters, routed through the Obs.Metrics registry so
   work is attributable to the metrics scope of the enclosing analysis. *)
module Metrics = Obs.Metrics

let c_busy_windows = Metrics.counter "busy_window.windows"
let c_window_iterations = Metrics.counter "busy_window.window_iterations"
let c_activations = Metrics.counter "busy_window.activations"
let c_demand_evals = Metrics.counter "busy_window.demand_evals"
let c_demand_probes = Metrics.counter "busy_window.demand_probes"

type counters = {
  busy_windows : int;
  window_iterations : int;
  activations : int;
  demand_evals : int;
  demand_probes : int;
}

let counters_of read =
  {
    busy_windows = read c_busy_windows;
    window_iterations = read c_window_iterations;
    activations = read c_activations;
    demand_evals = read c_demand_evals;
    demand_probes = read c_demand_probes;
  }

let counters () = counters_of Metrics.total

let counters_in scope = counters_of (Metrics.read scope)

let reset_counters () =
  List.iter Metrics.reset_total
    [
      c_busy_windows; c_window_iterations; c_activations; c_demand_evals;
      c_demand_probes;
    ]

let counters_diff a b =
  {
    busy_windows = a.busy_windows - b.busy_windows;
    window_iterations = a.window_iterations - b.window_iterations;
    activations = a.activations - b.activations;
    demand_evals = a.demand_evals - b.demand_evals;
    demand_probes = a.demand_probes - b.demand_probes;
  }

let fixpoint ~limit ~init f =
  let rec iterate w =
    Metrics.incr c_window_iterations;
    Guard.tick ();
    if w > limit then None
    else
      let w' = f w in
      if w' < w then invalid_arg "Busy_window.fixpoint: non-monotone step"
      else if w' = w then Some w
      else iterate w'
  in
  iterate init

(* Wraps one busy-window computation in a span carrying the element name,
   the q-range explored and the fixpoint/activation work it cost.  The
   disabled path runs [run] directly: no attribute lists are built and
   nothing is allocated. *)
let spanned ?label ~q_reached run =
  if Obs.Trace.enabled () then begin
    let w0 = Metrics.total c_window_iterations in
    let a0 = Metrics.total c_activations in
    Obs.Trace.with_span "busy_window"
      ~attrs:
        [ "element", Obs.Event.Str (Option.value label ~default:"<anon>") ]
      ~end_attrs:(fun () ->
        [
          "q_max", Obs.Event.Int !q_reached;
          "window_iterations",
          Obs.Event.Int (Metrics.total c_window_iterations - w0);
          "activations", Obs.Event.Int (Metrics.total c_activations - a0);
        ])
      run
  end
  else run ()

let max_response ?label ?record ~best_case ~arrival ~finish () =
  Metrics.incr c_busy_windows;
  if Guard.Inject.armed () then
    Guard.Inject.fire
      ("busy_window:" ^ Option.value label ~default:"<anon>");
  let q_reached = ref 0 in
  let rec loop q worst =
    Metrics.incr c_activations;
    Guard.tick ();
    q_reached := q;
    if q > q_limit then
      Unbounded (Printf.sprintf "busy period exceeds %d activations" q_limit)
    else
      match arrival q with
      | Time.Inf ->
        (* fewer than q activations can share a busy period *)
        Bounded (Interval.make ~lo:best_case ~hi:worst)
      | Time.Fin arr -> begin
        match finish q with
        | None -> Unbounded "busy window diverges (overload)"
        | Some fin ->
          (match record with
           | None -> ()
           | Some f -> f ~q ~arr ~fin);
          let worst = Stdlib.max worst (fin - arr) in
          let continue_period =
            match arrival (q + 1) with
            | Time.Inf -> false
            | Time.Fin next -> fin > next
          in
          if continue_period then loop (q + 1) worst
          else Bounded (Interval.make ~lo:best_case ~hi:worst)
      end
  in
  spanned ?label ~q_reached (fun () -> loop 1 0)

(* Accumulates the per-activation (arrival, completion) pairs emitted by
   [max_response ~record] into an [Event_model.Propagation.profile].  The
   pairs arrive in increasing q with monotone columns (arrivals are a
   delta_min curve; completions are least fixed points of per-q window
   equations that grow pointwise with q), which is exactly the profile
   constructor's contract. *)
let profile_collector () =
  let arrs = ref [] and fins = ref [] in
  let record ~q:_ ~arr ~fin =
    arrs := arr :: !arrs;
    fins := fin :: !fins
  in
  let get () =
    match !arrs with
    | [] -> None
    | _ ->
      Some
        (Event_model.Propagation.profile
           ~arrivals:(Array.of_list (List.rev !arrs))
           ~finishes:(Array.of_list (List.rev !fins)))
  in
  record, get

(* The backlog rides on the response enumeration: [record] sees every
   (q, fin) pair of the busy period, and the first unbounded arrival
   count stops the enumeration with its own reason. *)
let backlog (task : Rt_task.t) run =
  let exception Stop of string in
  let worst = ref 1 in
  let record ~q ~arr:_ ~fin =
    match Stream.eta_plus task.activation fin with
    | Count.Fin n -> worst := Stdlib.max !worst (n - (q - 1))
    | Count.Inf ->
      raise_notrace
        (Stop
           (Printf.sprintf "unbounded arrivals of %s in window %d" task.name
              fin))
  in
  match run record with
  | Bounded _ -> Ok !worst
  | Unbounded reason -> Error reason
  | exception Stop reason -> Error reason

let per_task ~profiled response_time tasks =
  List.map
    (fun task ->
      let others = List.filter (fun t -> t != task) tasks in
      if profiled then begin
        let record, profile = profile_collector () in
        let outcome = response_time ?record:(Some record) ~task ~others () in
        match outcome with
        | Bounded _ -> task, outcome, profile ()
        | Unbounded _ -> task, outcome, None
      end
      else task, response_time ?record:None ~task ~others (), None)
    tasks

(* SoA interference kernel: the per-probe work of [interference] —
   walking a task list, boxing every arrival count, restarting the
   eta_plus pseudo-inversion from scratch — dominates busy-window
   convergence on deep systems.  A [Demand.t] snapshots the
   higher-priority set once (activation curves, C+ values) and keeps a
   resumable search hint per task: convergence loops probe the same
   curves with monotonically growing windows, so each search can start
   where the previous one ended instead of re-running the exponential
   phase (satellite of ISSUE 6: hoisting repeated identical probes). *)
module Demand = struct
  module Curve = Event_model.Curve

  type t = {
    curves : Curve.t array;  (* activation delta_min curves *)
    cets : int array;  (* worst-case execution times (C+) *)
    names : string array;
    hints : int array;  (* resumable lower bounds for count_lt *)
  }

  let make tasks =
    let arr = Array.of_list tasks in
    {
      curves =
        Array.map
          (fun (t : Rt_task.t) -> Stream.delta_min_curve t.activation)
          arr;
      cets = Array.map (fun (t : Rt_task.t) -> Interval.hi t.cet) arr;
      names = Array.map (fun (t : Rt_task.t) -> t.name) arr;
      hints = Array.make (Array.length arr) 1;
    }

  let size t = Array.length t.cets
  let name t i = t.names.(i)

  let count t ~i ~window =
    if window <= 0 then 0
    else begin
      Metrics.incr c_demand_probes;
      match
        Curve.count_lt_packed t.curves.(i) ~lo:t.hints.(i) ~limit:window
      with
      | c ->
        t.hints.(i) <- c + 1;
        c
      | exception Curve.Unbounded _ -> -1
    end

  let eval t ~window =
    Metrics.incr c_demand_evals;
    let n = Array.length t.cets in
    let rec go i acc =
      if i >= n then Ok acc
      else begin
        let c = count t ~i ~window in
        if c < 0 then Error i else go (i + 1) (acc + (c * t.cets.(i)))
      end
    in
    go 0 0
end

let interference ~tasks ~window =
  let rec total = function
    | [] -> Ok 0
    | (task : Rt_task.t) :: rest -> begin
      match Stream.eta_plus task.activation window with
      | Count.Fin n -> begin
        match total rest with
        | Ok acc -> Ok (acc + (n * Interval.hi task.cet))
        | Error _ as e -> e
      end
      | Count.Inf ->
        Error
          (Printf.sprintf "unbounded arrivals of %s in window %d" task.name
             window)
    end
  in
  total tasks

let higher_priority ~than tasks =
  List.filter
    (fun (t : Rt_task.t) -> t != than && t.priority <= than.Rt_task.priority)
    tasks

let lower_priority ~than tasks =
  List.filter (fun (t : Rt_task.t) -> t.priority > than.Rt_task.priority) tasks
