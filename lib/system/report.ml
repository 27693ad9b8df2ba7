module Interval = Timebase.Interval
module Busy_window = Scheduling.Busy_window

type comparison_row = {
  name : string;
  baseline : Interval.t option;
  improved : Interval.t option;
  reduction_pct : float option;
}

let print_outcomes ppf (result : Engine.result) =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (o : Engine.element_outcome) ->
      Format.fprintf ppf "%-12s on %-8s R = %a@ " o.element o.resource
        Busy_window.pp_outcome o.outcome)
    result.outcomes;
  Format.fprintf ppf "converged: %b after %d iteration(s)" result.converged
    result.iterations;
  (match result.status with
  | Engine.Converged | Engine.Overloaded -> ()
  | Engine.Degraded d ->
    Format.fprintf ppf
      "@ DEGRADED at iteration %d (%s): %d bound(s) widened to unbounded;@ \
       remaining bounds are final, widened elements claim nothing"
      d.Engine.at_iteration
      (Guard.Error.to_string d.Engine.reason)
      (List.length d.Engine.widened));
  Format.fprintf ppf "@]@."

let print_effort ppf (result : Engine.result) =
  let s = result.Engine.stats in
  let c = s.Engine.curve in
  let b = s.Engine.busy in
  Format.fprintf ppf "@[<v>Analysis effort:@ ";
  Format.fprintf ppf "  iterations            %d@ " result.Engine.iterations;
  Format.fprintf ppf "  resources analysed    %d@ " s.Engine.resources_analysed;
  Format.fprintf ppf "  resources reused      %d@ " s.Engine.resources_reused;
  Format.fprintf ppf "  streams invalidated   %d@ "
    s.Engine.streams_invalidated;
  Format.fprintf ppf "  curve closure evals   %d  (memo hits %d)@ "
    c.Event_model.Curve.closure_evals c.Event_model.Curve.memo_hits;
  Format.fprintf ppf "  curve periodic evals  %d@ "
    c.Event_model.Curve.periodic_evals;
  Format.fprintf ppf "  curve batch sweeps    %d  (%d probes)@ "
    c.Event_model.Curve.batch_evals c.Event_model.Curve.batch_probe_count;
  Format.fprintf ppf "  curve searches        %d  (%d probe steps)@ "
    c.Event_model.Curve.searches c.Event_model.Curve.search_steps;
  Format.fprintf ppf "  curve spill probes    %d@ "
    c.Event_model.Curve.spill_probes;
  Format.fprintf ppf
    "  busy windows          %d  (%d fixpoint steps, %d activations)@ "
    b.Busy_window.busy_windows b.Busy_window.window_iterations
    b.Busy_window.activations;
  Format.fprintf ppf "  demand kernel sweeps  %d  (%d curve probes)@ "
    b.Busy_window.demand_evals b.Busy_window.demand_probes;
  let r = s.Engine.rtc in
  Format.fprintf ppf "  rtc deconv rows       %d  (%d candidate lags)@ "
    r.Rtc.Stats.deconv_rows r.Rtc.Stats.deconv_candidates;
  Format.fprintf ppf "  rtc delay scan steps  %d@ "
    r.Rtc.Stats.delay_scan_steps;
  Format.fprintf ppf "  rtc eta walk steps    %d@ " r.Rtc.Stats.eta_walk_steps;
  Format.fprintf ppf "  rtc items reused      %d@ " r.Rtc.Stats.items_reused;
  Format.fprintf ppf "@]"

let print_convergence ppf (result : Engine.result) =
  Format.fprintf ppf "@[<v>%4s %6s %8s %9s %9s %7s %12s@ " "iter" "dirty"
    "changed" "residual" "analysed" "reused" "invalidated";
  List.iter
    (fun (s : Engine.iteration_stat) ->
      Format.fprintf ppf "%4d %6d %8d %9d %9d %7d %12d@ " s.Engine.iteration
        s.Engine.dirty s.Engine.changed s.Engine.residual s.Engine.analysed
        s.Engine.reused s.Engine.invalidated)
    result.Engine.iteration_stats;
  Format.fprintf ppf "converged: %b after %d iteration(s)" result.converged
    result.iterations;
  (match result.status with
  | Engine.Converged | Engine.Overloaded -> ()
  | Engine.Degraded _ ->
    Format.fprintf ppf " [%s]" (Engine.status_name result.status));
  Format.fprintf ppf "@]"

(* Distribution view of the same data [print_convergence] tabulates: the
   per-iteration residuals folded through an [Obs.Hist], so a long
   convergence tail reads as a histogram instead of a hundred rows.
   Built from the recorded stats — needs no histogram enable flag. *)
let print_residual_hist ppf (result : Engine.result) =
  let h = Obs.Hist.make () in
  List.iter
    (fun (s : Engine.iteration_stat) -> Obs.Hist.record h s.Engine.residual)
    result.Engine.iteration_stats;
  Format.fprintf ppf "@[<v>Residual distribution (%d iterations):@ %a@]"
    (List.length result.Engine.iteration_stats)
    Obs.Hist.pp h

let print_convergence_csv ppf ~mode (result : Engine.result) =
  List.iter
    (fun (s : Engine.iteration_stat) ->
      Format.fprintf ppf "%s,%d,%d,%d,%d,%d,%d,%d@."
        (Engine.mode_name mode) s.Engine.iteration s.Engine.dirty
        s.Engine.changed s.Engine.residual s.Engine.analysed s.Engine.reused
        s.Engine.invalidated)
    result.Engine.iteration_stats

let compare_results ~baseline ~improved ~names =
  let row name =
    let base = Engine.response baseline name in
    let better = Engine.response improved name in
    let reduction_pct =
      match base, better with
      | Some b, Some i when Interval.hi b > 0 ->
        Some
          (100.0
          *. float_of_int (Interval.hi b - Interval.hi i)
          /. float_of_int (Interval.hi b))
      | _ -> None
    in
    { name; baseline = base; improved = better; reduction_pct }
  in
  List.map row names

let pp_interval_opt ppf = function
  | Some i -> Interval.pp ppf i
  | None -> Format.pp_print_string ppf "unbounded"

let pp_comparison ppf rows =
  Format.fprintf ppf "@[<v>%-10s %14s %14s %10s@ " "element" "R+ baseline"
    "R+ improved" "red.";
  List.iter
    (fun r ->
      let reduction =
        match r.reduction_pct with
        | Some pct -> Printf.sprintf "%.1f%%" pct
        | None -> "-"
      in
      Format.fprintf ppf "%-10s %14s %14s %10s@ " r.name
        (Format.asprintf "%a" pp_interval_opt r.baseline)
        (Format.asprintf "%a" pp_interval_opt r.improved)
        reduction)
    rows;
  Format.fprintf ppf "@]"

let demand_rate stream cet_hi =
  (* events per time from the arrival curve tail, times the worst case *)
  let window = 100_000 in
  let mid = window / 2 in
  let count dt =
    match Event_model.Stream.eta_plus stream dt with
    | Timebase.Count.Fin n -> n
    | Timebase.Count.Inf -> max_int / 4
  in
  float_of_int ((count window - count mid) * cet_hi) /. float_of_int mid

let utilizations (result : Engine.result) =
  let spec = result.Engine.spec in
  let of_task (k : Spec.task) =
    demand_rate (result.Engine.resolve k.activation) (Interval.hi k.cet)
  in
  let of_frame (f : Spec.frame) =
    demand_rate
      (Hem.Model.outer (result.Engine.pre_bus_hierarchy f.frame_name))
      (Interval.hi f.tx_time)
  in
  List.map
    (fun (r : Spec.resource) ->
      let tasks =
        List.filter (fun (k : Spec.task) -> k.resource = r.res_name)
          spec.Spec.tasks
      in
      let frames =
        List.filter (fun (f : Spec.frame) -> f.bus = r.res_name)
          spec.Spec.frames
      in
      let total =
        List.fold_left (fun acc k -> acc +. of_task k) 0.0 tasks
        +. List.fold_left (fun acc f -> acc +. of_frame f) 0.0 frames
      in
      r.res_name, 100.0 *. total)
    spec.Spec.resources

let signal_data_age (result : Engine.result) ~frame ~signal =
  let hierarchy = result.Engine.pre_bus_hierarchy frame in
  (* raise Not_found early for unknown signals, even when unbounded *)
  ignore (Hem.Model.find_inner hierarchy signal);
  match Engine.response result frame with
  | None -> None
  | Some response ->
    Some (Comstack.Latency.data_age ~hierarchy ~response ~signal)

let path_latency result names =
  let rec total acc = function
    | [] -> Some acc
    | name :: rest -> begin
      match Engine.response result name with
      | Some r -> total (Interval.add acc r) rest
      | None -> None
    end
  in
  total (Interval.make ~lo:0 ~hi:0) names
