module Engine = Cpa_system.Engine

let short_digest d = if String.length d > 8 then String.sub d 0 8 else d

let mode_tag = function
  | Engine.Hierarchical -> "hem"
  | Engine.Flat_stream -> "flat_stream"
  | Engine.Flat_sem -> "flat"

let latency_cell (m : Summary.mode_summary) =
  if m.metrics.degraded then "degraded"
  else if not m.metrics.converged then "diverged"
  else
    match m.metrics.worst_latency with
    | Some l -> string_of_int l
    | None -> "-"

let summary_line fmt (report : Driver.report) =
  Format.fprintf fmt "%d variants, %d unique, %d cache hits"
    (List.length report.rows) report.cache.entries report.cache.hits;
  match report.interrupted with
  | None -> ()
  | Some reason ->
    Format.fprintf fmt "; interrupted (%s): completed prefix only"
      (Guard.Error.to_string reason)

let timing_line fmt (report : Driver.report) =
  Format.fprintf fmt "jobs %d, wall %.1f ms;" report.jobs report.wall_ms;
  List.iter
    (fun (w : Pool.worker_stat) ->
      Format.fprintf fmt " worker%d: %d tasks %.1f ms" w.worker w.tasks
        (w.busy_us /. 1000.0);
      if w.idle_us >= 100.0 then
        Format.fprintf fmt " (idle %.1f ms)" (w.idle_us /. 1000.0))
    report.workers

(* The headline mode of a row: hierarchical when evaluated, otherwise the
   first evaluated mode. *)
let headline (s : Summary.t) =
  match Summary.mode_summary s Engine.Hierarchical with
  | Some m -> Some m
  | None -> ( match s.modes with m :: _ -> Some m | [] -> None)

let label_width rows =
  List.fold_left
    (fun acc (r : Driver.row) -> Stdlib.max acc (String.length r.label))
    7 rows

let table fmt (report : Driver.report) =
  let w = label_width report.rows in
  Format.fprintf fmt "%-*s %-8s %9s %9s %7s %7s %8s %5s %4s@." w "variant"
    "digest" "R+ hem" "R+ flat" "red%" "util%" "margin%" "iters" "dup";
  List.iter
    (fun (r : Driver.row) ->
      match r.summary with
      | Error e ->
        Format.fprintf fmt "%-*s %-8s error: %s@." w r.label
          (short_digest r.digest) e
      | Ok s ->
        let cell mode =
          match Summary.mode_summary s mode with
          | Some m -> latency_cell m
          | None -> ""
        in
        let red =
          match Summary.reduction_pct s with
          | Some p -> Printf.sprintf "%.1f" p
          | None -> "-"
        in
        let util, margin, iters =
          match headline s with
          | Some m ->
            ( Printf.sprintf "%.1f" m.metrics.max_util_pct,
              Printf.sprintf "%.1f" m.metrics.margin_pct,
              string_of_int m.metrics.iterations )
          | None -> "-", "-", "-"
        in
        Format.fprintf fmt "%-*s %-8s %9s %9s %7s %7s %8s %5s %4s@." w
          r.label (short_digest r.digest)
          (cell Engine.Hierarchical)
          (cell Engine.Flat_sem)
          red util margin iters
          (if r.cache_hit then "dup" else ""))
    report.rows;
  Format.fprintf fmt "%a@." summary_line report

let csv_mode_line fmt (r : Driver.row) (s : Summary.t)
    (m : Summary.mode_summary) =
  let red =
    if m.mode = Engine.Hierarchical then
      match Summary.reduction_pct s with
      | Some p -> Printf.sprintf "%.2f" p
      | None -> ""
    else ""
  in
  Format.fprintf fmt "%s,%s,%b,%s,%b,%b,%s,%.2f,%.2f,%d,%s@." r.label
    r.digest r.cache_hit (mode_tag m.mode) m.metrics.converged
    m.metrics.degraded
    (match m.metrics.worst_latency with
     | Some l -> string_of_int l
     | None -> "")
    m.metrics.max_util_pct m.metrics.margin_pct m.metrics.iterations red

let csv fmt (report : Driver.report) =
  Format.fprintf fmt
    "label,digest,cache_hit,mode,converged,degraded,worst_latency,max_util_pct,margin_pct,iterations,reduction_pct@.";
  List.iter
    (fun (r : Driver.row) ->
      match r.summary with
      | Error e ->
        Format.fprintf fmt "%s,%s,%b,error,,,,,,,%s@." r.label r.digest
          r.cache_hit (String.map (function ',' -> ';' | c -> c) e)
      | Ok s -> List.iter (csv_mode_line fmt r s) s.modes)
    report.rows

(* JSON string literals come from the shared codec; the layout and the
   [%.2f] numbers of the report are this module's own. *)
let quote s = Obs.Json.to_string (Obs.Json.Str s)

let json fmt (report : Driver.report) =
  Format.fprintf fmt "{@.  \"variants\": [@.";
  let last_row = List.length report.rows - 1 in
  List.iteri
    (fun i (r : Driver.row) ->
      Format.fprintf fmt "    {\"label\": %s, \"digest\": %s, \"cache_hit\": %b"
        (quote r.label) (quote r.digest) r.cache_hit;
      (match r.summary with
       | Error e -> Format.fprintf fmt ", \"error\": %s}" (quote e)
       | Ok s ->
         Format.fprintf fmt ", \"modes\": [";
         let last_mode = List.length s.modes - 1 in
         List.iteri
           (fun j (m : Summary.mode_summary) ->
             Format.fprintf fmt
               "{\"mode\": %s, \"converged\": %b, \"degraded\": %b, \
                \"worst_latency\": %s, \
                \"max_util_pct\": %.2f, \"margin_pct\": %.2f, \
                \"iterations\": %d}%s"
               (quote (mode_tag m.mode))
               m.metrics.converged m.metrics.degraded
               (match m.metrics.worst_latency with
                | Some l -> string_of_int l
                | None -> "null")
               m.metrics.max_util_pct m.metrics.margin_pct
               m.metrics.iterations
               (if j = last_mode then "" else ", "))
           s.modes;
         Format.fprintf fmt "]";
         (match Summary.reduction_pct s with
          | Some p -> Format.fprintf fmt ", \"reduction_pct\": %.2f" p
          | None -> ());
         Format.fprintf fmt "}");
      Format.fprintf fmt "%s@." (if i = last_row then "" else ","))
    report.rows;
  Format.fprintf fmt
    "  ],@.  \"cache\": {\"lookups\": %d, \"hits\": %d, \"entries\": %d}"
    report.cache.lookups report.cache.hits report.cache.entries;
  (match report.interrupted with
  | None -> ()
  | Some reason ->
    Format.fprintf fmt ",@.  \"interrupted\": %s"
      (quote (Guard.Error.to_string reason)));
  Format.fprintf fmt "@.}@."

let pareto_table fmt (report : Driver.report) ~mode =
  let front = Driver.pareto report ~mode in
  Format.fprintf fmt "Pareto front (%s): %d of %d variants@."
    (mode_tag mode) (List.length front) (List.length report.rows);
  let w = label_width front in
  List.iter
    (fun (r : Driver.row) ->
      match r.summary with
      | Error _ -> ()
      | Ok s -> begin
        match Summary.mode_summary s mode with
        | None -> ()
        | Some m ->
          Format.fprintf fmt "  %-*s R+=%s util=%.1f%% margin=%.1f%%@." w
            r.label (latency_cell m) m.metrics.max_util_pct
            m.metrics.margin_pct
      end)
    front
