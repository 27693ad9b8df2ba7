(* Command-line front end: analyse or simulate the paper's reference
   system (and parametric variants) without writing OCaml.

   Commands:
     hem_tool analyse     [--mode flat|flat-stream|hem] [--s3-period N]
                          [--propagation MODE] [--backend spec|cpa|rtc]
                          [--trace FILE] [--trace-level spans|full]
                          [--deadline MS] [--budget N]
     hem_tool convergence [--s3-period N] [--file FILE] [--propagation MODE]
                          [--trace FILE]
     hem_tool simulate    [--horizon N] [--seed N] [--s3-period N]
     hem_tool figure4     [--max-dt N] [--step N]
     hem_tool scaling     [--signals N]
     hem_tool sweep       [--file SPEC] [--jobs N] [--period SRC=..]
                          [--cet-scale TASK=..] [--frame-priority F=..]
                          [--format table|csv|json]
     hem_tool explore     [--file SPEC] [--jobs N] [--bus B] [--max-frames K]
                          [+ sweep axes] [--format table|csv|json]
     hem_tool verify      [--file SPEC] [--fuzz N] [--seed N] [--horizon N]
                          [--no-selfcheck] [--deadline MS] [--budget N]
     hem_tool serve       (--socket PATH | --tcp PORT [--host H]) [--jobs N]
                          [--propagation MODE] [--max-sessions N]
                          [--max-frame BYTES] [--queue N] [--deadline MS]
                          [--budget N] [--drain-ms MS]
     hem_tool client      (load/edit/analyse/metrics/close/ping/shutdown)
                          (--socket PATH | --tcp PORT) [op args]

   Exit codes: 0 success, 1 error (invalid spec, cycle, I/O), 3 graceful
   degradation (deadline, budget, or divergence — printed bounds are
   sound but widened), 4 cancellation (completed prefix printed).  The
   serve protocol's reply status codes are the same taxonomy, and client
   subcommands exit with the status of the reply they received.

   The --selfcheck flag of analyse/convergence audits every stream the
   engine propagates against the Verify sanitizer and fails the run on
   an invariant violation. *)

module Interval = Timebase.Interval
module Count = Timebase.Count
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Report = Cpa_system.Report
module Paper = Scenarios.Paper_system
module Guard = Guard

open Cmdliner

(* Counts, periods, widths, steps and horizons: a value below [lo] is a
   usage error (exit 124) at parse time, before any command runs. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1

let s3_period_arg =
  let doc = "Period of the pending source S3." in
  Arg.(value & opt positive_int Paper.s3_period
       & info [ "s3-period" ] ~docv:"N" ~doc)

let mode_arg =
  let modes =
    [ "hem", Engine.Hierarchical; "flat", Engine.Flat_sem;
      "flat-stream", Engine.Flat_stream ]
  in
  let doc = "Analysis mode: hem, flat (SEM baseline), or flat-stream." in
  Arg.(value & opt (enum modes) Engine.Hierarchical
       & info [ "mode" ] ~docv:"MODE" ~doc)

let exit_err e =
  Printf.eprintf "error: %s\n" e;
  exit 1

let exit_guard_err e =
  Printf.eprintf "error: %s\n" (Guard.Error.to_string e);
  exit (Guard.Error.exit_code e)

(* --deadline / --budget: build a guard token for the command *)

let deadline_arg =
  let doc =
    "Wall-clock deadline in milliseconds.  On expiry the run degrades \
     gracefully instead of hanging: the analysis widens unconverged \
     bounds to unbounded (keeping every printed bound sound), an \
     exploration returns the deterministic completed prefix, and the \
     process exits with code 3."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)

let budget_arg =
  let doc =
    "Work budget in analysis steps (busy-window activations and \
     fixed-point iterations; one verification case for verify).  \
     Exhaustion degrades the run like --deadline: exit code 3."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)

let mk_guard deadline budget =
  match deadline, budget with
  | None, None -> Guard.none
  | _ -> Guard.create ?deadline_ms:deadline ?budget ()

(* exit code of a finished analysis: degraded results map the trip
   reason through the shared code table (3 degraded, 4 cancelled) *)
let status_code (result : Engine.result) =
  match result.Engine.status with
  | Engine.Degraded d -> Guard.Error.exit_code d.Engine.reason
  | Engine.Converged | Engine.Overloaded -> 0

let guard_exits =
  Cmd.Exit.info 1 ~doc:"on an analysis error (invalid specification, \
                        cyclic dependencies, unreadable file)."
  :: Cmd.Exit.info 3
       ~doc:"on graceful degradation (--deadline expired, --budget \
             exhausted, or a diverging fixed point): all printed bounds \
             are sound, widened ones say so explicitly."
  :: Cmd.Exit.info 4
       ~doc:"on cancellation: completed results are printed before \
             exiting."
  :: Cmd.Exit.defaults

(* analyse *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

(* the parsed system description in [path]; exits on a read or parse
   error *)
let read_spec_file path =
  match Cpa_system.Spec_file.parse (read_file path) with
  | Ok description -> description
  | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
  | exception Sys_error e -> exit_err e

let load_spec ?(s3_period = Paper.s3_period) = function
  | None -> Paper.spec ~s3_period (), true
  | Some path -> Cpa_system.Spec_file.to_spec (read_spec_file path), false

let file_arg =
  let doc =
    "System description file (S-expression format, see \
     examples/specs/); defaults to the built-in paper system."
  in
  Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc = "Print analysis-effort counters (iterations, reuse, curve and \
             busy-window work)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* tracing *)

let trace_arg =
  let doc =
    "Write a Chrome trace_event file of the analysis (open in \
     chrome://tracing or ui.perfetto.dev).  A $(b,.jsonl) extension \
     selects newline-delimited JSON."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_level_arg =
  let levels = [ "spans", Obs.Sink.Spans; "full", Obs.Sink.Full ] in
  let doc =
    "Trace detail: $(b,spans) records span begin/end only, $(b,full) adds \
     instants and counter samples (residual/dirty tracks)."
  in
  Arg.(value & opt (enum levels) Obs.Sink.Full
       & info [ "trace-level" ] ~docv:"LEVEL" ~doc)

(* Installs a Chrome-trace file sink around [f] when [trace] names a
   file; without [--trace] no sink is installed and the instrumentation
   stays on its free path. *)
let with_trace trace level f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Sink.install ~level (Obs.Chrome_trace.file path);
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.uninstall ();
        Printf.printf "wrote %s\n" path)
      f

(* metrics snapshot: --metrics FILE enables histogram recording for the
   run and dumps the full telemetry registry (counters, gauges,
   histogram percentiles) as deterministic-schema JSON afterwards. *)

let metrics_arg =
  let doc =
    "Write a machine-readable telemetry snapshot to $(docv) after the \
     run: every registry counter and gauge plus latency histograms \
     (p50/p90/p99) as stable JSON.  Histogram recording is enabled for \
     the run (it is off, and costs nothing, otherwise).  A \
     $(b,.prom) extension selects Prometheus text format instead."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
    Obs.Hist.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Hist.set_enabled false;
        let snap = Obs.Snapshot.capture () in
        if Filename.check_suffix path ".prom" then
          Obs.Snapshot.write_prometheus path snap
        else Obs.Snapshot.write_json path snap;
        Printf.printf "wrote %s\n" path)
      f

(* propagation: override the spec-wide default output-propagation mode *)

let propagation_arg =
  let modes =
    List.map
      (fun m -> Event_model.Propagation.mode_name m, m)
      Event_model.Propagation.all_modes
  in
  let doc =
    "Output-model propagation method applied spec-wide (overrides the \
     description's default; per-task overrides in the description keep \
     precedence): $(b,theta_tau) (the paper's exact recursion, the \
     default), $(b,jitter), $(b,jitter_offset), $(b,jitter_bmin), \
     $(b,busy_window), or $(b,optimal) (pointwise-tightest sound output \
     per task)."
  in
  Arg.(value & opt (some (enum modes)) None
       & info [ "propagation" ] ~docv:"MODE" ~doc)

let apply_propagation propagation spec =
  match propagation with
  | None -> spec
  | Some m -> Spec.with_propagation m spec

(* backend: force every resource onto one local-analysis backend *)

let backend_arg =
  let choices = [ "spec", `Spec; "cpa", `Cpa; "rtc", `Rtc ] in
  let doc =
    "Local-analysis backend forced on every resource: $(b,cpa) \
     (busy-window analysis), $(b,rtc) (workload/service curves; EDF \
     resources stay on cpa, which keeps the only service model for \
     dynamic deadlines), or $(b,spec) (keep each resource's declared \
     backend — the default)."
  in
  Arg.(value & opt (enum choices) `Spec & info [ "backend" ] ~docv:"B" ~doc)

let apply_backend backend spec =
  let force b =
    {
      spec with
      Spec.resources =
        List.map
          (fun (r : Spec.resource) ->
            if r.Spec.scheduler = Spec.Edf then
              { r with Spec.backend = Spec.Cpa }
            else { r with Spec.backend = b })
          spec.Spec.resources;
    }
  in
  match backend with
  | `Spec -> spec
  | `Cpa -> force Spec.Cpa
  | `Rtc -> force Spec.Rtc

(* selfcheck: wire the Verify sanitizer into the engine's audit hook *)

let selfcheck_arg =
  let doc =
    "Audit every stream the engine propagates (sources, task outputs, \
     frame streams, unpacked signals) against the curve invariants of the \
     Verify sanitizer, and capture pack-degradation warnings.  The run \
     fails on an error-severity violation."
  in
  Arg.(value & flag & info [ "selfcheck" ] ~doc)

(* [with_selfcheck flag f] passes the audit hook (or [None]) to [f],
   prints each distinct violation once, and fails the command if any
   error-severity violation surfaced. *)
let with_selfcheck selfcheck f =
  if not selfcheck then f None
  else begin
    let errors = ref 0 in
    let seen = Hashtbl.create 64 in
    let emit v =
      let key = Verify.Violation.to_string v in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        if Verify.Violation.is_error v then incr errors;
        Format.eprintf "selfcheck: %a@." Verify.Violation.pp v
      end
    in
    let hook s = Verify.Stream.audit ~on_violation:emit s in
    Hem.Pack.set_warn_hook (fun (w : Hem.Pack.warning) ->
        emit
          (Verify.Violation.make ~severity:Verify.Violation.Warning
             ~subject:(w.frame ^ "." ^ w.signal) ~invariant:"pack.frame_gap"
             w.reason));
    Fun.protect ~finally:Hem.Pack.clear_warn_hook (fun () ->
        let result = f (Some hook) in
        if !errors > 0 then
          exit_err
            (Printf.sprintf "selfcheck: %d invariant violation%s" !errors
               (if !errors = 1 then "" else "s"));
        result)
  end

(* Shared per-mode run/report pipeline (used by analyse and convergence):
   analyse the spec in one mode, print outcomes and the optional effort /
   convergence blocks. *)
let run_mode ?(stats = false) ?(convergence = false) ?selfcheck ?guard ~mode
    spec =
  match Engine.analyse ~mode ?selfcheck ?guard spec with
  | Error e -> exit_guard_err e
  | Ok result ->
    Report.print_outcomes Format.std_formatter result;
    if convergence then
      Format.printf "@.Convergence:@.%a@." Report.print_convergence result;
    if stats then Format.printf "@.%a@." Report.print_effort result;
    result

let analyse_cmd =
  let run mode s3_period file propagation backend stats trace trace_level
      metrics selfcheck deadline budget =
    let guard = mk_guard deadline budget in
    let spec, is_paper = load_spec ~s3_period file in
    let spec = apply_backend backend (apply_propagation propagation spec) in
    with_trace trace trace_level @@ fun () ->
    with_metrics metrics @@ fun () ->
    with_selfcheck selfcheck @@ fun selfcheck ->
    let result = run_mode ~stats ?selfcheck ~guard ~mode spec in
    let code = ref (status_code result) in
    if mode = Engine.Hierarchical then begin
      match Engine.analyse ~mode:Engine.Flat_sem ?selfcheck ~guard spec with
      | Error e -> exit_guard_err e
      | Ok flat ->
        code := Stdlib.max !code (status_code flat);
        let names =
          if is_paper then Paper.cpu_tasks
          else
            List.filter_map
              (fun (o : Engine.element_outcome) ->
                if List.exists
                     (fun (k : Spec.task) ->
                       String.equal k.task_name o.element)
                     spec.Spec.tasks
                then Some o.element
                else None)
              result.Engine.outcomes
        in
        Format.printf "@.Comparison against the flat baseline:@.";
        Report.pp_comparison Format.std_formatter
          (Report.compare_results ~baseline:flat ~improved:result ~names);
        Format.printf "@."
    end;
    if !code <> 0 then exit !code
  in
  let doc = "Analyse a system (the paper's reference system by default)." in
  Cmd.v (Cmd.info "analyse" ~doc ~exits:guard_exits)
    Term.(const run $ mode_arg $ s3_period_arg $ file_arg $ propagation_arg
          $ backend_arg $ stats_arg $ trace_arg $ trace_level_arg
          $ metrics_arg $ selfcheck_arg $ deadline_arg $ budget_arg)

(* convergence *)

let convergence_cmd =
  let run s3_period file propagation stats trace trace_level selfcheck format
      =
    let spec, _ = load_spec ~s3_period file in
    let spec = apply_propagation propagation spec in
    let modes = [ Engine.Hierarchical; Engine.Flat_stream; Engine.Flat_sem ] in
    with_trace trace trace_level @@ fun () ->
    with_selfcheck selfcheck @@ fun selfcheck ->
    match format with
    | `Csv ->
      (* Byte-stable: pure per-iteration analysis data, no timing and no
         rendering that could vary between runs. *)
      Format.printf
        "mode,iteration,dirty,changed,residual,analysed,reused,invalidated@.";
      List.iter
        (fun mode ->
          match Engine.analyse ~mode ?selfcheck spec with
          | Error e -> exit_guard_err e
          | Ok result ->
            Report.print_convergence_csv Format.std_formatter ~mode result)
        modes
    | `Table ->
      List.iter
        (fun mode ->
          Format.printf "== %s ==@." (Engine.mode_name mode);
          let result =
            run_mode ~stats ~convergence:true ?selfcheck ~mode spec
          in
          Format.printf "@.%a@.@." Report.print_residual_hist result)
        modes
  in
  let format_arg =
    let formats = [ "table", `Table; "csv", `Csv ] in
    let doc =
      "Output format: $(b,table) (per-mode residual tables plus a \
       residual-distribution histogram) or $(b,csv) (byte-stable \
       per-iteration rows for diffing across runs)."
    in
    Arg.(value & opt (enum formats) `Table & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let doc =
    "Show how the global fixed point converges: the per-iteration residual \
     table (dirty/changed elements, largest response-bound movement, \
     incremental reuse) and the residual distribution in every analysis \
     mode."
  in
  Cmd.v (Cmd.info "convergence" ~doc)
    Term.(const run $ s3_period_arg $ file_arg $ propagation_arg $ stats_arg
          $ trace_arg $ trace_level_arg $ selfcheck_arg $ format_arg)

(* profile *)

let profile_cmd =
  let run spec_path mode s3_period top flame metrics =
    let spec, _ = load_spec ~s3_period spec_path in
    (* Capacity sized so no span of a large analysis is evicted: a
       truncated ring would under-attribute the early iterations. *)
    let sink, events = Obs.Sink.memory ~capacity:(1 lsl 21) () in
    Obs.Sink.install ~level:Obs.Sink.Spans sink;
    with_metrics metrics @@ fun () ->
    let t0 = Obs.Clock.now_us () in
    (* The explicit root span covers the whole analysis call — spec
       validation, context setup and result assembly included — so the
       tree's self times partition the measured wall window instead of
       only the engine's inner extent. *)
    let result =
      match
        Obs.Trace.with_span "analysis" (fun () -> Engine.analyse ~mode spec)
      with
      | Ok r -> r
      | Error e ->
        Obs.Sink.uninstall ();
        exit_guard_err e
    in
    let wall_ms = (Obs.Clock.now_us () -. t0) /. 1000.0 in
    Obs.Sink.uninstall ();
    let profile = Obs.Profile.of_events (events ()) in
    Format.printf "%a@." (Obs.Profile.pp_top ~n:top) profile;
    let traced_ms = Obs.Profile.total_us profile /. 1000.0 in
    Format.printf
      "wall %.3f ms, traced %.3f ms (%.1f%% coverage), %d iteration(s), \
       converged %b@."
      wall_ms traced_ms
      (if wall_ms > 0.0 then 100.0 *. traced_ms /. wall_ms else 0.0)
      result.Engine.iterations result.Engine.converged;
    match flame with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Profile.collapsed profile);
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  let spec_pos =
    let doc =
      "System description file (S-expression format); defaults to the \
       built-in paper system."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let top_arg =
    let doc = "Rows of the top-N cost table." in
    Arg.(value & opt positive_int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let flame_arg =
    let doc =
      "Write collapsed-stack text (one $(b,path;to;node self-µs) line per \
       span-tree node) to $(docv) — the input format of flamegraph.pl and \
       speedscope."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Attribute analysis cost: run the engine under an in-memory span \
     recorder and fold the trace into a per-(resource × stream × phase) \
     cost tree with call counts, total and self times — as a top-N table \
     and optionally as flamegraph input.  Self times partition the traced \
     wall time, so the table answers where the milliseconds went."
  in
  Cmd.v (Cmd.info "profile" ~doc ~exits:guard_exits)
    Term.(const run $ spec_pos $ mode_arg $ s3_period_arg $ top_arg
          $ flame_arg $ metrics_arg)

(* sweep / explore *)

module Space = Explore.Space
module Driver = Explore.Driver
module Render = Explore.Render

let jobs_arg =
  let doc =
    "Worker domains for the exploration pool (0 = hardware parallelism).  \
     Results are byte-identical for every job count."
  in
  Arg.(value & opt (int_at_least 0) 0 & info [ "jobs" ] ~docv:"N" ~doc)

let resolve_jobs = function 0 -> Explore.Pool.default_jobs () | j -> j

type output_format =
  | Table
  | Csv
  | Json

let format_arg =
  let formats = [ "table", Table; "csv", Csv; "json", Json ] in
  let doc = "Output format: table, csv, or json." in
  Arg.(value & opt (enum formats) Table & info [ "format" ] ~docv:"FMT" ~doc)

(* Axis values: "500,1000" or "400..1500:100" (step defaults to 1). *)
let parse_values kind s =
  let int_of v =
    match int_of_string_opt (String.trim v) with
    | Some n -> n
    | None -> exit_err (Printf.sprintf "%s: bad integer %s" kind v)
  in
  match String.index_opt s '.' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '.' ->
    let lo = int_of (String.sub s 0 i) in
    let rest = String.sub s (i + 2) (String.length s - i - 2) in
    let hi, step =
      match String.index_opt rest ':' with
      | None -> int_of rest, 1
      | Some j ->
        ( int_of (String.sub rest 0 j),
          int_of (String.sub rest (j + 1) (String.length rest - j - 1)) )
    in
    if step < 1 then exit_err (kind ^ ": step must be >= 1");
    if hi < lo then exit_err (kind ^ ": empty range");
    let rec ints v acc =
      if v > hi then List.rev acc else ints (v + step) (v :: acc)
    in
    ints lo []
  | _ -> List.map int_of (String.split_on_char ',' s)

let parse_axis_arg kind s =
  match String.index_opt s '=' with
  | None -> exit_err (Printf.sprintf "%s: expected NAME=VALUES, got %s" kind s)
  | Some i ->
    let name = String.sub s 0 i in
    let values = String.sub s (i + 1) (String.length s - i - 1) in
    name, parse_values kind values

let period_axes specs =
  List.map
    (fun s ->
      let source, values = parse_axis_arg "--period" s in
      Space.int_axis (source ^ ".period")
        (fun period -> Space.Source_period { source; period })
        values)
    specs

let cet_axes specs =
  List.map
    (fun s ->
      let task, values = parse_axis_arg "--cet-scale" s in
      Space.int_axis (task ^ ".cet")
        (fun percent -> Space.Cet_scale { task; percent })
        values)
    specs

let frame_priority_axes specs =
  List.map
    (fun s ->
      let frame, values = parse_axis_arg "--frame-priority" s in
      Space.int_axis (frame ^ ".prio")
        (fun priority -> Space.Frame_priority { frame; priority })
        values)
    specs

let period_arg =
  let doc =
    "Sweep a source's period: $(b,SRC=V1,V2,...) or $(b,SRC=LO..HI:STEP).  \
     Repeatable; multiple axes form a grid."
  in
  Arg.(value & opt_all string [] & info [ "period" ] ~docv:"AXIS" ~doc)

let cet_scale_arg =
  let doc =
    "Sweep a task's execution-time scale in percent, e.g. \
     $(b,T3=80..160:20)."
  in
  Arg.(value & opt_all string [] & info [ "cet-scale" ] ~docv:"AXIS" ~doc)

let frame_priority_arg =
  let doc = "Sweep a frame's priority, e.g. $(b,F1=1,2)." in
  Arg.(value & opt_all string [] & info [ "frame-priority" ] ~docv:"AXIS" ~doc)

(* Base builder: rebuilt from pure data inside every worker domain, as
   the pool's domain-locality contract requires. *)
let base_builder file s3_period =
  match file with
  | None -> fun () -> Paper.spec ~s3_period ()
  | Some path ->
    let description = read_spec_file path in
    fun () -> Cpa_system.Spec_file.to_spec description

let render_report format report =
  (match format with
   | Table -> Render.table Format.std_formatter report
   | Csv -> Render.csv Format.std_formatter report
   | Json -> Render.json Format.std_formatter report);
  Format.eprintf "%a@." Render.timing_line report

(* [Some code] when a report warrants a non-zero exit: interruption wins
   (its reason carries the code), else any degraded row exits 3 *)
let report_code (report : Driver.report) =
  match report.interrupted with
  | Some reason -> Guard.Error.exit_code reason
  | None ->
    let row_degraded (r : Driver.row) =
      match r.summary with
      | Error _ -> false
      | Ok s ->
        List.exists
          (fun (m : Explore.Summary.mode_summary) ->
            m.Explore.Summary.metrics.Explore.Summary.degraded)
          s.Explore.Summary.modes
    in
    if List.exists row_degraded report.rows then 3 else 0

let sweep_cmd =
  let run s3_period file periods cets fprios jobs format deadline budget =
    let jobs = resolve_jobs jobs in
    let guard = mk_guard deadline budget in
    let base = base_builder file s3_period in
    let axes = period_axes periods @ cet_axes cets @ frame_priority_axes fprios in
    if axes = [] then
      exit_err "sweep: give at least one --period / --cet-scale / --frame-priority axis";
    let items =
      match Driver.plan ~base (Space.grid axes) with
      | Ok items -> items
      | Error e -> exit_guard_err e
    in
    let report = Driver.run ~jobs ~guard items in
    render_report format report;
    let code = report_code report in
    if code <> 0 then exit code
  in
  let doc =
    "Evaluate a grid of system variants in parallel (hierarchical vs flat \
     per variant), deduplicated through the content-addressed result cache."
  in
  Cmd.v (Cmd.info "sweep" ~doc ~exits:guard_exits)
    Term.(const run $ s3_period_arg $ file_arg $ period_arg $ cet_scale_arg
          $ frame_priority_arg $ jobs_arg $ format_arg $ deadline_arg
          $ budget_arg)

let explore_cmd =
  let run s3_period file periods cets fprios bus max_frames bits bit_time
      jobs format deadline budget =
    let jobs = resolve_jobs jobs in
    let guard = mk_guard deadline budget in
    let base = base_builder file s3_period in
    let base_spec = base () in
    (* [Not_found]: the bus has no frames *)
    let packing_variants bus =
      Space.packing_variants ?max_frames ~bits_per_signal:bits ~bit_time
        base_spec ~bus ()
    in
    let no_layout = [ { Space.label = ""; edits = [] } ] in
    let layouts =
      match bus with
      | Some bus -> begin
        match packing_variants bus with
        | variants -> variants
        | exception Not_found ->
          exit_guard_err
            (Guard.Error.Invalid_spec
               { reason = Printf.sprintf "bus %s carries no frames" bus })
      end
      | None -> begin
        (* default: the first SPNP bus of the system, when it has frames *)
        match
          List.find_map
            (fun (r : Spec.resource) ->
              if r.scheduler = Spec.Spnp then Some r.res_name else None)
            base_spec.Spec.resources
        with
        | None -> no_layout
        | Some bus -> (
          match packing_variants bus with
          | variants -> variants
          | exception Not_found -> no_layout)
      end
    in
    let axes = period_axes periods @ cet_axes cets @ frame_priority_axes fprios in
    let grid = Space.grid axes in
    let variants =
      List.concat_map
        (fun (g : Space.variant) ->
          List.map
            (fun (l : Space.variant) ->
              {
                Space.label =
                  (match g.label, l.label with
                   | "", l -> l
                   | g, "" -> g
                   | g, l -> g ^ " " ^ l);
                edits = g.edits @ l.edits;
              })
            layouts)
        grid
    in
    let items =
      match Driver.plan ~base variants with
      | Ok items -> items
      | Error e -> exit_guard_err e
    in
    let report = Driver.run ~jobs ~guard items in
    render_report format report;
    if format = Table then begin
      Format.printf "@.%a" (fun fmt r -> Render.pareto_table fmt r ~mode:Engine.Hierarchical) report;
      Format.printf "@.%a" (fun fmt r -> Render.pareto_table fmt r ~mode:Engine.Flat_sem) report
    end;
    let code = report_code report in
    if code <> 0 then exit code
  in
  let bus_arg =
    let doc =
      "Bus whose signal-to-frame layouts are enumerated (default: the \
       system's first SPNP bus)."
    in
    Arg.(value & opt (some string) None & info [ "bus" ] ~docv:"NAME" ~doc)
  in
  let max_frames_arg =
    let doc = "Largest frame count per layout (default: one per signal)." in
    Arg.(value & opt (some positive_int) None
         & info [ "max-frames" ] ~docv:"K" ~doc)
  in
  let bits_arg =
    let doc = "Payload bits per signal for layout transmission times." in
    Arg.(value & opt positive_int 8 & info [ "bits-per-signal" ] ~docv:"B" ~doc)
  in
  let bit_time_arg =
    let doc = "Bus time units per payload bit." in
    Arg.(value & opt positive_int 1 & info [ "bit-time" ] ~docv:"T" ~doc)
  in
  let doc =
    "Explore the design space: enumerate signal-to-frame layouts (set \
     partitions of a bus's signals, transmission times from the COM-layer \
     payload layout), cross them with parameter axes, analyse every \
     variant hierarchically and flat in parallel, and report the Pareto \
     fronts over (worst-case latency, utilization, load margin)."
  in
  Cmd.v (Cmd.info "explore" ~doc ~exits:guard_exits)
    Term.(const run $ s3_period_arg $ file_arg $ period_arg $ cet_scale_arg
          $ frame_priority_arg $ bus_arg $ max_frames_arg $ bits_arg
          $ bit_time_arg $ jobs_arg $ format_arg $ deadline_arg
          $ budget_arg)

(* simulate *)

let simulate_cmd =
  let run horizon seed s3_period =
    let spec = Paper.spec ~s3_period () in
    let generators = Paper.generators ~s3_period () in
    match Des.Simulator.run ~seed ~generators ~horizon spec with
    | Error e -> exit_err e
    | Ok trace ->
      Printf.printf "%-6s %12s %12s %12s\n" "elem" "completions" "best R"
        "worst R";
      List.iter
        (fun name ->
          let show f = match f with Some v -> string_of_int v | None -> "-" in
          Printf.printf "%-6s %12d %12s %12s\n" name
            (Des.Trace.response_count trace name)
            (show (Des.Trace.best_response trace name))
            (show (Des.Trace.worst_response trace name)))
        ("F1" :: "F2" :: Paper.cpu_tasks)
  in
  let horizon =
    Arg.(value & opt positive_int 1_000_000
         & info [ "horizon" ] ~docv:"N" ~doc:"Simulation horizon.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let doc = "Simulate the paper's reference system." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ horizon $ seed $ s3_period_arg)

(* figure4 *)

let figure4_cmd =
  let run max_dt step s3_period =
    match Engine.analyse ~mode:Engine.Hierarchical (Paper.spec ~s3_period ()) with
    | Error e -> exit_guard_err e
    | Ok hem ->
      let streams =
        ("F1", hem.Engine.resolve (Spec.From_frame "F1"))
        :: List.map2
             (fun task signal ->
               ( task,
                 hem.Engine.resolve (Spec.From_signal { frame = "F1"; signal })
               ))
             Paper.cpu_tasks
             [ "sig1"; "sig2"; "sig3" ]
      in
      Printf.printf "%-8s" "dt";
      List.iter (fun (name, _) -> Printf.printf "%8s" name) streams;
      print_newline ();
      let rec loop dt =
        if dt <= max_dt then begin
          Printf.printf "%-8d" dt;
          List.iter
            (fun (_, s) ->
              Printf.printf "%8s" (Count.to_string (Stream.eta_plus s dt)))
            streams;
          print_newline ();
          loop (dt + step)
        end
      in
      loop step
  in
  let max_dt =
    Arg.(value & opt positive_int 2500
         & info [ "max-dt" ] ~docv:"N" ~doc:"Largest window size.")
  in
  let step =
    Arg.(value & opt positive_int 125
         & info [ "step" ] ~docv:"N" ~doc:"Window step.")
  in
  let doc = "Print the eta+ series of Figure 4." in
  Cmd.v (Cmd.info "figure4" ~doc)
    Term.(const run $ max_dt $ step $ s3_period_arg)

(* export *)

let export_cmd =
  let run file horizon seed out_prefix =
    let spec, _ = load_spec file in
    (* generators reconstructed from the source streams is not possible in
       general; periodic generators matching the built-in system are used
       for the default, and periodic-from-description for files *)
    let generators =
      match file with
      | None -> Paper.generators ()
      | Some path -> begin
        match Cpa_system.Spec_file.parse (read_file path) with
        | Error e -> exit_err e
        | Ok description ->
          List.map
            (fun (s : Cpa_system.Spec_file.source) ->
              let gen =
                match s.Cpa_system.Spec_file.desc with
                | Cpa_system.Spec_file.Periodic p -> Des.Gen.periodic ~period:p ()
                | Cpa_system.Spec_file.Periodic_jitter { period; jitter; _ } ->
                  Des.Gen.periodic_jitter ~period ~jitter ()
                | Cpa_system.Spec_file.Sporadic d ->
                  Des.Gen.sporadic ~d_min:d ~slack:d ()
                | Cpa_system.Spec_file.Burst { period; burst; d_min } ->
                  Des.Gen.of_times
                    (List.concat_map
                       (fun k ->
                         List.init burst (fun j -> (k * period) + (j * d_min)))
                       (List.init ((1_000_000 / period) + 1) Fun.id))
              in
              s.Cpa_system.Spec_file.source_name, gen)
            description.Cpa_system.Spec_file.sources
      end
    in
    match Des.Simulator.run ~seed ~generators ~horizon spec with
    | Error e -> exit_err e
    | Ok trace ->
      let write path contents =
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s\n" path
      in
      let sources = List.map (fun (n, _) -> Des.Port.source n) spec.Spec.sources in
      let frames =
        List.map (fun (f : Spec.frame) -> Des.Port.frame f.frame_name)
          spec.Spec.frames
      in
      let outputs =
        List.map (fun (k : Spec.task) -> Des.Port.task_output k.task_name)
          spec.Spec.tasks
      in
      let elements =
        List.map (fun (f : Spec.frame) -> f.Spec.frame_name) spec.Spec.frames
        @ List.map (fun (k : Spec.task) -> k.Spec.task_name) spec.Spec.tasks
      in
      write (out_prefix ^ ".vcd")
        (Des.Export.vcd trace ~streams:(sources @ frames @ outputs));
      write (out_prefix ^ "-arrivals.csv")
        (Des.Export.arrivals_csv trace ~streams:(sources @ frames));
      write (out_prefix ^ "-responses.csv")
        (Des.Export.responses_csv trace ~elements)
  in
  let horizon =
    Arg.(value & opt positive_int 100_000
         & info [ "horizon" ] ~docv:"N" ~doc:"Simulation horizon.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let out_prefix =
    Arg.(value & opt string "trace"
         & info [ "out" ] ~docv:"PREFIX" ~doc:"Output file prefix.")
  in
  let doc = "Simulate and export VCD + CSV traces." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ file_arg $ horizon $ seed $ out_prefix)

(* gantt *)

let gantt_cmd =
  let run from_time width =
    let spec = Paper.spec () in
    let generators = Paper.generators () in
    match
      Des.Simulator.run ~generators ~horizon:(from_time + width + 1000) spec
    with
    | Error e -> exit_err e
    | Ok trace ->
      print_string
        (Des.Export.gantt ~from_time ~width trace
           ~elements:("F1" :: "F2" :: Paper.cpu_tasks));
      Printf.printf "\nResponse statistics:\n%-6s %8s %6s %6s %8s %6s\n" "elem"
        "count" "best" "worst" "mean" "p99";
      List.iter
        (fun name ->
          match Des.Trace.response_stats trace name with
          | Some s ->
            Printf.printf "%-6s %8d %6d %6d %8.1f %6d\n" name s.Des.Trace.count
              s.Des.Trace.best s.Des.Trace.worst s.Des.Trace.mean
              s.Des.Trace.percentile_99
          | None -> Printf.printf "%-6s (no completions)\n" name)
        ("F1" :: "F2" :: Paper.cpu_tasks)
  in
  let from_time =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "from" ] ~docv:"T" ~doc:"Window start.")
  in
  let width =
    Arg.(value & opt positive_int 120
         & info [ "width" ] ~docv:"N" ~doc:"Window width.")
  in
  let doc = "Simulate and render an ASCII Gantt chart with statistics." in
  Cmd.v (Cmd.info "gantt" ~doc) Term.(const run $ from_time $ width)

(* headroom *)

let headroom_cmd =
  let run s3_period jobs =
    let jobs = resolve_jobs jobs in
    let spec = Paper.spec ~s3_period () in
    Printf.printf "%-6s %16s %16s\n" "task" "flat headroom" "HEM headroom";
    List.iter
      (fun task ->
        let headroom mode =
          (* a monotone predicate: the threshold is the same at every
             job count *)
          match
            Explore.Sensitivity.max_cet_scale ~jobs ~mode
              ~build:(fun () -> Paper.spec ~s3_period ())
              ~task ()
          with
          | Some pct -> Printf.sprintf "%d%%" pct
          | None -> "none"
        in
        Printf.printf "%-6s %16s %16s\n" task
          (headroom Engine.Flat_sem)
          (headroom Engine.Hierarchical))
      Paper.cpu_tasks;
    match Engine.analyse ~mode:Engine.Hierarchical spec with
    | Error e -> exit_guard_err e
    | Ok result ->
      Printf.printf "\nResource load:\n";
      List.iter
        (fun (resource, pct) -> Printf.printf "  %-6s %5.1f%%\n" resource pct)
        (Report.utilizations result)
  in
  let doc = "Execution-time headroom per task and resource loads." in
  Cmd.v (Cmd.info "headroom" ~doc) Term.(const run $ s3_period_arg $ jobs_arg)

(* data-age *)

let data_age_cmd =
  let run s3_period =
    match
      Engine.analyse ~mode:Engine.Hierarchical (Paper.spec ~s3_period ())
    with
    | Error e -> exit_guard_err e
    | Ok result ->
      Printf.printf "%-6s %-8s %14s\n" "frame" "signal" "worst data age";
      List.iter
        (fun (frame, signal) ->
          let age =
            match Report.signal_data_age result ~frame ~signal with
            | Some t -> Timebase.Time.to_string t
            | None -> "unbounded"
          in
          Printf.printf "%-6s %-8s %14s\n" frame signal age)
        [ "F1", "sig1"; "F1", "sig2"; "F1", "sig3"; "F2", "sig4" ]
  in
  let doc = "Worst-case write-to-delivery age of every COM signal." in
  Cmd.v (Cmd.info "data-age" ~doc) Term.(const run $ s3_period_arg)

(* scaling *)

let scaling_cmd =
  let run signals =
    let spec = Scenarios.Synthetic.fan_in ~signals () in
    match
      ( Engine.analyse ~mode:Engine.Flat_sem spec,
        Engine.analyse ~mode:Engine.Hierarchical spec )
    with
    | Ok flat, Ok hem ->
      Report.pp_comparison Format.std_formatter
        (Report.compare_results ~baseline:flat ~improved:hem
           ~names:(List.init signals (fun i -> Printf.sprintf "T%d" (i + 1))));
      Format.printf "@."
    | Error e, _ | _, Error e -> exit_guard_err e
  in
  let signals =
    Arg.(value & opt positive_int 4
         & info [ "signals" ] ~docv:"N" ~doc:"Signals packed into the frame.")
  in
  let doc = "Analyse a synthetic fan-in system of N signals." in
  Cmd.v (Cmd.info "scaling" ~doc) Term.(const run $ signals)

(* verify *)

let verify_cmd =
  let run s3_period file fuzz seed horizon no_selfcheck deadline budget =
    let selfcheck = not no_selfcheck in
    let guard = mk_guard deadline budget in
    let failed = ref 0 in
    (* one budget unit per case/section; on a trip, surface the partial
       results already printed and exit through the shared code table *)
    let checkpoint () =
      match Guard.spend guard 1 with
      | () -> ()
      | exception Guard.Error.Error reason ->
        Format.eprintf "verify interrupted (%s): partial results above@."
          (Guard.Error.to_string reason);
        exit (Guard.Error.exit_code reason)
    in
    let count_checks checks =
      List.iter
        (fun (c : Verify.Oracle.check) ->
          Format.printf "%a@." Verify.Oracle.pp_check c;
          if not c.Verify.Oracle.ok then incr failed)
        checks
    in
    let count_report r =
      Format.printf "%a@." Verify.Oracle.pp_report r;
      if not (Verify.Oracle.passed r) then incr failed
    in
    if fuzz = 0 then begin
      checkpoint ();
      Format.printf "-- curve backend vs naive closures --@.";
      count_checks (Verify.Oracle.backend_agreement ());
      checkpoint ();
      let spec, is_paper = load_spec ~s3_period file in
      let generators =
        if is_paper then Some (Paper.generators ~s3_period ()) else None
      in
      Format.printf "@.-- system oracles --@.";
      checkpoint ();
      count_report
        (Verify.Oracle.verify_spec
           ~label:(if is_paper then "paper system" else "system")
           ~selfcheck ~seed ~horizon ?generators spec);
      if is_paper then begin
        checkpoint ();
        Format.printf "@.-- exploration cache on vs off --@.";
        count_checks
          [
            Verify.Oracle.cache_agreement
              ~base:(fun () -> Paper.spec ~s3_period ())
              (Space.grid
                 [
                   Space.int_axis "S1.period"
                     (fun period ->
                       Space.Source_period { source = "S1"; period })
                     [ 230; 250 ];
                 ]
               @ [ { Space.label = "dup"; edits = [] } ]);
          ]
      end
    end
    else
      List.iter
        (fun case ->
          checkpoint ();
          count_report (Verify.Oracle.verify_case ~selfcheck ~horizon case))
        (Verify.Fuzz.cases ~seed ~count:fuzz);
    if !failed > 0 then
      exit_err (Printf.sprintf "%d verification failure(s)" !failed)
    else Format.printf "@.verification clean@."
  in
  let fuzz_arg =
    let doc =
      "Verify $(docv) seeded random systems (Space edits over the scenario \
       bases) instead of the given system."
    in
    Arg.(value & opt (int_at_least 0) 0 & info [ "fuzz" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Seed for fuzzing and simulation.")
  in
  let horizon_arg =
    Arg.(value & opt positive_int 200_000
         & info [ "horizon" ] ~docv:"N" ~doc:"Simulation horizon.")
  in
  let no_selfcheck_arg =
    let doc = "Skip the per-stream invariant sanitizer (oracles only)." in
    Arg.(value & flag & info [ "no-selfcheck" ] ~doc)
  in
  let doc =
    "Self-verify the analysis: invariant-sanitize every propagated stream, \
     and cross-check the compact curve backend, the incremental engine, the \
     hierarchical-vs-flat tightening, the simulator dominance and the \
     exploration cache against independent implementations."
  in
  Cmd.v (Cmd.info "verify" ~doc ~exits:guard_exits)
    Term.(const run $ s3_period_arg $ file_arg $ fuzz_arg $ seed_arg
          $ horizon_arg $ no_selfcheck_arg $ deadline_arg $ budget_arg)

(* serve / client *)

module Protocol = Serve.Protocol
module Client = Serve.Client

let serve_socket_arg =
  let doc = "Unix-domain socket path to listen on." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_tcp_arg =
  let doc = "TCP port to listen on (see also $(b,--host))." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let serve_host_arg =
  let doc = "Bind host for $(b,--tcp)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let serve_cmd =
  let run socket tcp host jobs mode propagation max_sessions max_frame
      max_queue deadline budget drain_ms =
    if socket = None && tcp = None then
      exit_err "serve: pass --socket PATH and/or --tcp PORT";
    let cfg =
      Serve.Server.config ?unix_path:socket
        ?tcp:(Option.map (fun port -> host, port) tcp)
        ~jobs:(resolve_jobs jobs) ~mode ?propagation ~max_sessions ~max_frame
        ~max_queue ?default_deadline_ms:deadline ?default_budget:budget
        ~drain_ms ()
    in
    match Serve.Server.run cfg with
    | () -> ()
    | exception Unix.Unix_error (e, fn, arg) ->
      exit_err (Printf.sprintf "serve: %s %s: %s" fn arg (Unix.error_message e))
    | exception Invalid_argument m -> exit_err m
  in
  let max_sessions_arg =
    let doc = "Resident warm sessions before LRU eviction." in
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let max_frame_arg =
    let doc = "Frame payload byte limit." in
    Arg.(value & opt int Protocol.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let queue_arg =
    let doc =
      "Per-worker mailbox depth past which requests are rejected with \
       protocol status 4 (admission control)."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    let doc =
      "Grace period for in-flight requests on SIGTERM / shutdown, after \
       which their guards are cancelled."
    in
    Arg.(value & opt float 5000. & info [ "drain-ms" ] ~docv:"MS" ~doc)
  in
  let doc =
    "Run the analysis daemon: warm incremental sessions over a \
     length-prefixed JSON protocol (load / edit / analyse / metrics / \
     close), with per-request deadlines and budgets, admission control, \
     LRU session eviction and graceful drain on SIGTERM.  Reply status \
     codes reuse the CLI exit-code taxonomy (0/1/3/4)."
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits:guard_exits)
    Term.(const run $ serve_socket_arg $ serve_tcp_arg $ serve_host_arg
          $ jobs_arg $ mode_arg $ propagation_arg $ max_sessions_arg
          $ max_frame_arg $ queue_arg $ deadline_arg $ budget_arg $ drain_arg)

let client_addr socket tcp host =
  match socket, tcp with
  | Some path, None -> `Unix path
  | None, Some port -> `Tcp (host, port)
  | Some _, Some _ -> exit_err "client: pass either --socket or --tcp, not both"
  | None, None -> exit_err "client: pass --socket PATH or --tcp PORT"

(* Every client subcommand prints the full reply envelope (one JSON line:
   id, status, error?, body?) and exits with the reply's status code —
   the same 0/1/3/4 taxonomy the offline commands use. *)
let finish = function
  | Error e -> exit_err e
  | Ok (reply : Protocol.reply) ->
    print_endline (Protocol.Json.to_string (Protocol.reply_to_json reply));
    (match reply.Protocol.error with
    | Some (_, msg) -> Printf.eprintf "error: %s\n" msg
    | None -> ());
    exit (Client.exit_code reply)

let with_client socket tcp host f =
  match Client.connect (client_addr socket tcp host) with
  | Error e -> exit_err e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> finish (f c))

let session_arg =
  let doc = "Session id (as returned by $(b,load))." in
  Arg.(required & opt (some string) None & info [ "session" ] ~docv:"ID" ~doc)

let mode_wire_name = function
  | Engine.Hierarchical -> "hierarchical"
  | Engine.Flat_stream -> "flat-stream"
  | Engine.Flat_sem -> "flat-sem"

let client_cmd =
  let load_cmd =
    let spec_file_arg =
      let doc = "System description file to upload (S-expression format)." in
      Arg.(required & opt (some string) None
           & info [ "file" ] ~docv:"FILE" ~doc)
    in
    let run socket tcp host file mode deadline budget =
      let spec =
        try read_file file with Sys_error e -> exit_err e
      in
      with_client socket tcp host (fun c ->
        Client.load ?deadline_ms:deadline ?budget:budget
          ~mode:(mode_wire_name mode) c ~spec)
    in
    let doc =
      "Upload a spec and open a warm session; the reply body carries the \
       session id and the initial analysis outcomes."
    in
    Cmd.v (Cmd.info "load" ~doc ~exits:guard_exits)
      Term.(const run $ serve_socket_arg $ serve_tcp_arg $ serve_host_arg
            $ spec_file_arg $ mode_arg $ deadline_arg $ budget_arg)
  in
  let edit_cmd =
    let single kind s =
      match parse_axis_arg kind s with
      | name, [ v ] -> name, v
      | _ -> exit_err (kind ^ ": expected NAME=VALUE (a single value)")
    in
    let one kind ~docv ~doc =
      Arg.(value & opt_all string [] & info [ kind ] ~docv ~doc)
    in
    let run socket tcp host session periods cets task_prios frame_prios json
        deadline budget =
      let edits =
        List.map
          (fun s ->
            let source, period = single "--period" s in
            Space.Source_period { source; period })
          periods
        @ List.map
            (fun s ->
              let task, percent = single "--cet-scale" s in
              Space.Cet_scale { task; percent })
            cets
        @ List.map
            (fun s ->
              let task, priority = single "--task-priority" s in
              Space.Task_priority { task; priority })
            task_prios
        @ List.map
            (fun s ->
              let frame, priority = single "--frame-priority" s in
              Space.Frame_priority { frame; priority })
            frame_prios
        @
        match json with
        | None -> []
        | Some text -> begin
          match Explore.Wire.parse text with
          | Ok edits -> edits
          | Error e -> exit_err ("--json: " ^ e)
        end
      in
      if edits = [] then exit_err "edit: no edits given";
      with_client socket tcp host (fun c ->
        Client.edit ?deadline_ms:deadline ?budget:budget c ~session edits)
    in
    let doc =
      "Apply edits to a warm session; the reply body carries only the \
       re-analysed outcomes (plus reuse counters), not the full system."
    in
    Cmd.v (Cmd.info "edit" ~doc ~exits:guard_exits)
      Term.(const run $ serve_socket_arg $ serve_tcp_arg $ serve_host_arg
            $ session_arg
            $ one "period" ~docv:"SRC=V"
                ~doc:"Set a source's period (repeatable)."
            $ one "cet-scale" ~docv:"TASK=PCT"
                ~doc:"Scale a task's execution bounds by PCT% (repeatable)."
            $ one "task-priority" ~docv:"TASK=P"
                ~doc:"Set a task's priority (repeatable)."
            $ one "frame-priority" ~docv:"FRAME=P"
                ~doc:"Set a frame's priority (repeatable)."
            $ Arg.(value & opt (some string) None
                   & info [ "json" ] ~docv:"EDITS"
                       ~doc:"Raw edit list in the canonical JSON encoding \
                             (as printed by $(b,export)).")
            $ deadline_arg $ budget_arg)
  in
  let session_op name ~doc op =
    let run socket tcp host session deadline budget =
      with_client socket tcp host (fun c ->
        Client.request ?deadline_ms:deadline ?budget:budget c (op session))
    in
    Cmd.v (Cmd.info name ~doc ~exits:guard_exits)
      Term.(const run $ serve_socket_arg $ serve_tcp_arg $ serve_host_arg
            $ session_arg $ deadline_arg $ budget_arg)
  in
  let analyse_cmd =
    session_op "analyse"
      ~doc:"Full outcomes of the session's current system: a read-back \
            of its warm fixed point, or a rebuild after a degraded or \
            overloaded run."
      (fun session -> Protocol.Analyse { session })
  in
  let metrics_cmd =
    session_op "metrics"
      ~doc:"Per-session analysis counters plus a process telemetry snapshot."
      (fun session -> Protocol.Metrics { session })
  in
  let close_cmd =
    session_op "close" ~doc:"Close a session and free its warm state."
      (fun session -> Protocol.Close { session })
  in
  let plain_op name ~doc op =
    let run socket tcp host =
      with_client socket tcp host (fun c -> Client.request c op)
    in
    Cmd.v (Cmd.info name ~doc ~exits:guard_exits)
      Term.(const run $ serve_socket_arg $ serve_tcp_arg $ serve_host_arg)
  in
  let ping_cmd =
    plain_op "ping" ~doc:"Liveness probe; reports session and worker counts."
      Protocol.Ping
  in
  let shutdown_cmd =
    plain_op "shutdown" ~doc:"Ask the daemon to drain and exit."
      Protocol.Shutdown
  in
  let doc =
    "Talk to a running $(b,hem_tool serve) daemon.  Every subcommand \
     prints the reply envelope as one JSON line and exits with the \
     reply's protocol status — the same 0/1/3/4 code taxonomy as the \
     offline commands."
  in
  Cmd.group (Cmd.info "client" ~doc ~exits:guard_exits)
    [ load_cmd; edit_cmd; analyse_cmd; metrics_cmd; close_cmd; ping_cmd;
      shutdown_cmd ]

let () =
  let doc = "hierarchical event model analysis of the DATE'08 reference system" in
  let info = Cmd.info "hem_tool" ~version:"1.0.0" ~doc ~exits:guard_exits in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyse_cmd; convergence_cmd; profile_cmd; simulate_cmd;
            figure4_cmd; scaling_cmd; sweep_cmd; explore_cmd; export_cmd;
            gantt_cmd; headroom_cmd; data_age_cmd; verify_cmd; serve_cmd;
            client_cmd;
          ]))
