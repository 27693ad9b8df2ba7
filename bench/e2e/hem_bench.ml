(* hem_bench: the repository's end-to-end benchmark.

     hem_bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1|DIR]
                   [--smoke] [--root DIR] [--daemon PATH]
     hem_bench compare OLD.json... --vs NEW.json...
     hem_bench golden [--root DIR] > bench/e2e/golden.txt

   [run --workload W] measures one workload and prints each metric by
   name with its unit and sample count; its last stdout line is one JSON
   object {correct, attempted, failed, metrics}, holding the end-to-end
   metrics, or with --trace the per-layer ones.  Results go to a JSON
   file under bench/e2e/out/.  Without --workload, every workload runs
   in a child process of its own.  See bench/e2e/README.md. *)

module Json = Explore.Wire.Json

let workloads = [ "analyse_cold"; "analyse_rtc"; "sweep"; "serve_mixed" ]

let run_workload env = function
  | "analyse_cold" -> W_analyse.run env W_analyse.Cold
  | "analyse_rtc" -> W_analyse.run env W_analyse.Rtc
  | "sweep" -> W_sweep.run env
  | "serve_mixed" -> W_serve.run env
  | w -> invalid_arg ("unknown workload " ^ w)

let die = Compare.die
let num f = if Float.is_finite f then Json.Float f else Json.Null

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* run *)

let metrics_json (ms : Timing.metric list) =
  Json.Obj
    (List.map
       (fun (m : Timing.metric) ->
         ( m.name,
           Json.Obj
             [ "value", num m.value; "unit", Json.Str m.unit;
               "samples", Json.Int m.samples ] ))
       ms)

let print_metrics title (ms : Timing.metric list) =
  if ms <> [] then Printf.printf "  %s\n" title;
  List.iter
    (fun (m : Timing.metric) ->
      Printf.printf "    %-34s %14.6g %-6s (n=%d)\n" m.name m.value m.unit m.samples)
    ms

let git_commit root =
  match Timing.read_file (Filename.concat root ".git/HEAD") with
  | None -> "unknown"
  | Some s -> (
    match String.split_on_char ' ' (String.trim s) with
    | [ "ref:"; r ] ->
      Option.fold ~none:r ~some:String.trim
        (Timing.read_file (Filename.concat root (".git/" ^ r)))
    | _ -> String.trim s)

let env_json (env : Harness.env) =
  Json.Obj
    [
      "nproc", Json.Int (Domain.recommended_domain_count ());
      "commit", Json.Str (git_commit env.root);
      "ocaml", Json.Str Sys.ocaml_version;
      "daemon", Json.Str env.daemon;
      "seed", Json.Int env.seed;
      "seconds", num env.seconds;
      "traced", Json.Bool env.traced;
    ]

let run_one (env : Harness.env) name =
  Printf.printf "== %s (seed %d, %g s%s)\n%!" name env.seed env.seconds
    (if env.traced then ", traced" else "");
  let o = run_workload env name in
  (* a traced smoke run must see every layer on the workload that
     exercises it *)
  if env.smoke && env.traced then
    List.iter
      (Harness.broken o.tally "per-layer metric %s not measured")
      (Layers.missing ~workload:name o.layers);
  print_metrics "end-to-end" (if env.traced then [] else o.end_to_end);
  print_metrics "as named per workload" (if env.traced then [] else o.named);
  print_metrics "per layer" (if env.traced then Layers.complete o.layers else []);
  Printf.printf "  attempted %d, failed %d, %s\n" o.tally.attempted o.tally.failed
    (if Harness.correct o then "correct" else "INCORRECT");
  List.iter (fun p -> Printf.printf "  ! %s\n" p) (List.rev o.tally.problems);
  flush stdout;
  o

(* Traced runs leave a Chrome trace and the per-layer table behind. *)
let write_trace ~dir ~env w (o : Harness.outcome) =
  write_file (Filename.concat dir "trace.json") (Spans.chrome_json ());
  write_file (Filename.concat dir "layers.json")
    (Json.to_string
       (Json.Obj
          [ "workload", Json.Str w; "env", env_json env;
            "metrics", metrics_json (Layers.complete o.layers);
            "self_time_us",
            Json.Obj
              (List.map
                 (fun (name, n, total, self) ->
                   ( name,
                     Json.Obj [ "count", Json.Int n; "total", num total; "self", num self ] ))
                 (Spans.self_times ())) ])
    ^ "\n");
  Printf.printf "  trace: %s\n%!" dir

(* Long enough for every workload to complete a few operations and for
   the serving run to reach its open-loop phase. *)
let smoke_seconds = 0.3

let run_cmd ~workload ~seed ~seconds ~trace ~smoke ~root ~daemon =
  let out_dir = Filename.concat root "bench/e2e/out" in
  mkdir_p out_dir;
  let traced, trace_dir =
    match trace with
    | None | Some "0" -> false, None
    | Some "1" -> true, None
    | Some dir -> true, Some dir
  in
  let seconds =
    match seconds with
    | Some s -> s
    | None -> if smoke then smoke_seconds else Compare.run_seconds ~root
  in
  let env =
    { Harness.seed; seconds; root; out_dir; daemon; smoke; traced;
      golden = Golden.load ~root }
  in
  (* a smoke run measures the workload untraced, then traced *)
  let results =
    List.map
      (fun traced ->
        let env = { env with traced } in
        Spans.reset ();
        let o = run_one env workload in
        if traced then begin
          let dir =
            match trace_dir with
            | Some d -> Filename.concat d workload
            | None ->
              Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d" workload seed)
          in
          write_trace ~dir ~env workload o
        end;
        traced, o)
      (if smoke then [ false; true ] else [ traced ])
  in
  let sum f = List.fold_left (fun n (_, o) -> n + f o) 0 results in
  let attempted = sum (fun (o : Harness.outcome) -> o.tally.attempted) in
  let failed = sum (fun (o : Harness.outcome) -> o.tally.failed) in
  let out =
    Filename.concat out_dir
      (Printf.sprintf "results-%s-seed%d%s.json" workload seed
         (if traced then "-trace" else ""))
  in
  write_file out
    (Json.to_string
       (Json.Obj
          [
            "env", env_json env;
            "workloads",
            Json.Obj
              (List.map
                 (fun (traced, (o : Harness.outcome)) ->
                   ( (if traced then workload ^ "+trace" else workload),
                     Json.Obj
                       [ "correct", Json.Bool (Harness.correct o);
                         "attempted", Json.Int o.tally.attempted;
                         "failed", Json.Int o.tally.failed;
                         "problems",
                         Json.Arr (List.map (fun p -> Json.Str p) o.tally.problems);
                         "end_to_end", metrics_json (if traced then [] else o.end_to_end);
                         "named", metrics_json (if traced then [] else o.named);
                         "layers",
                         metrics_json (if traced then Layers.complete o.layers else []) ] ))
                 results);
          ])
    ^ "\n");
  Printf.printf "results: %s\n" out;
  (* the machine-read summary: end-to-end metrics of an untraced run, or
     the per-layer metrics of a traced one *)
  let summary =
    List.concat_map
      (fun (tr, (o : Harness.outcome)) ->
        if tr <> traced then []
        else
          List.map
            (fun (m : Timing.metric) ->
              m.name, Json.Obj [ "value", num m.value; "unit", Json.Str m.unit ])
            (if tr then Layers.complete o.layers else o.end_to_end))
      results
  in
  let finite (_, j) = Json.member "value" j <> Some Json.Null in
  let correct =
    List.for_all (fun (_, o) -> Harness.correct o) results && List.for_all finite summary
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ "correct", Json.Bool correct; "attempted", Json.Int attempted;
            "failed", Json.Int failed; "metrics", Json.Obj summary ]));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* golden *)

let golden_cmd ~root =
  List.iter
    (fun seed ->
      let env =
        { Harness.seed; seconds = 0.0; root; out_dir = ""; daemon = ""; smoke = false;
          traced = false; golden = Hashtbl.create 1 }
      in
      List.iter print_endline
        (W_analyse.golden_lines env W_analyse.Cold
        @ W_analyse.golden_lines env W_analyse.Rtc
        @ W_sweep.golden_lines env))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* CLI *)

(* Without --workload, each workload runs in a child process of its own,
   so that its peak RSS and its summary line are its own. *)
let run_each args =
  let succeeded w =
    let argv = Array.of_list ((Sys.executable_name :: "run" :: args) @ [ "--workload"; w ]) in
    let pid =
      Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
    in
    snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  in
  match List.filter (fun w -> not (succeeded w)) workloads with
  | [] -> ()
  | failed ->
    prerr_endline ("hem_bench: failed: " ^ String.concat ", " failed);
    exit 1

let usage () =
  prerr_endline
    "usage: hem_bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1|DIR]\n\
    \                     [--smoke] [--root DIR] [--daemon PATH]\n\
    \       hem_bench compare OLD.json... --vs NEW.json...\n\
    \       hem_bench golden [--root DIR]";
  exit 2

let () =
  let rec flags acc = function
    | [] -> List.rev acc
    | "--smoke" :: rest -> flags (("--smoke", "") :: acc) rest
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      flags ((flag, value) :: acc) rest
    | arg :: _ -> die "unexpected argument %s" arg
  in
  let opt fs name = List.assoc_opt name fs in
  let root fs = Option.value (opt fs "--root") ~default:"." in
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest ->
    let fs = flags [] rest in
    List.iter
      (fun (f, _) ->
        if
          not
            (List.mem f
               [ "--workload"; "--seed"; "--seconds"; "--trace"; "--smoke"; "--root";
                 "--daemon" ])
        then die "unknown flag %s" f)
      fs;
    let number name parse =
      Option.map
        (fun v -> match parse v with Some n -> n | None -> die "%s: bad value %s" name v)
        (opt fs name)
    in
    (match opt fs "--workload" with
     | None -> run_each rest
     | Some w when not (List.mem w workloads) -> die "unknown workload %s" w
     | Some workload ->
       run_cmd ~workload
         ~seed:(Option.value (number "--seed" int_of_string_opt) ~default:1)
         ~seconds:(number "--seconds" float_of_string_opt)
         ~trace:(opt fs "--trace") ~smoke:(List.mem_assoc "--smoke" fs) ~root:(root fs)
         ~daemon:
           (Option.value (opt fs "--daemon")
              ~default:
                (Filename.concat (Filename.dirname Sys.executable_name)
                   "../../bin/hem_tool.exe")))
  | "compare" :: rest -> Compare.run rest
  | "golden" :: rest -> golden_cmd ~root:(root (flags [] rest))
  | _ -> usage ()
