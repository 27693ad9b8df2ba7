(* What every workload shares: the run environment, the failure tally,
   and the set-up and time-boxed measurement loops. *)

type env = {
  seed : int;
  seconds : float;  (** length of the timed measurement *)
  root : string;  (** source tree: examples/ and bench/e2e/golden.txt *)
  out_dir : string;  (** sockets, daemon log, results, traces *)
  daemon : string;  (** hem_tool executable *)
  smoke : bool;  (** one set-up and a smaller RTC corpus *)
  traced : bool;
  golden : Golden.t;
}

(* Operations attempted and failed.  A failure is a wrong output, an
   analysis error or a non-zero reply status; the first few are kept
   for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  lock : Mutex.t;
}

let tally () = { attempted = 0; failed = 0; problems = []; lock = Mutex.create () }

let attempt t n = Mutex.protect t.lock (fun () -> t.attempted <- t.attempted + n)

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect t.lock (fun () ->
        t.failed <- t.failed + 1;
        if List.length t.problems < 20 then t.problems <- msg :: t.problems))
    fmt

(* A check made outside the timed operations (references, goldens,
   simulation dominance): a failure marks the run incorrect without
   counting as a failed operation. *)
let broken t fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect t.lock (fun () -> t.problems <- msg :: t.problems))
    fmt

type outcome = {
  tally : tally;
  end_to_end : Timing.metric list;
  layers : Timing.metric list;  (** traced runs only *)
  named : Timing.metric list;
      (** the same numbers under workload-specific names, for reading *)
}

let correct o = o.tally.failed = 0 && o.tally.problems = []

(* Set-up runs seven times (once in a smoke run); the last instance is
   kept and [setup_s] is the median set-up time. *)
let setup_reps env = if env.smoke then 1 else 7

let repeated_setup env ~dispose f =
  let rec go i times =
    let v, ms = Timing.time_ms f in
    let times = (ms /. 1e3) :: times in
    if i >= setup_reps env then v, Timing.median times
    else begin
      dispose v;
      go (i + 1) times
    end
  in
  go 1 []

(* Runs [op i] back to back until the run length has passed; returns
   each operation's duration in ms and the CPU time of the whole loop
   per operation.  Traced runs alternate traced (even [i]) and untraced
   operations, so a traced run needs two to measure the tracing
   overhead; a traced smoke run stops after the first. *)
let closed_loop env op =
  let min_ops = if env.traced && not env.smoke then 2 else 1 in
  let deadline = Int64.add (Timing.now_ns ()) (Int64.of_float (env.seconds *. 1e9)) in
  let cpu0 = Timing.self_cpu_ms () in
  let rec go i acc =
    if i >= min_ops && Int64.compare (Timing.now_ns ()) deadline >= 0 then acc
    else begin
      let ms = op i in
      go (i + 1) (ms :: acc)
    end
  in
  let times = List.rev (go 0 []) in
  let cpu = (Timing.self_cpu_ms () -. cpu0) /. float (List.length times) in
  times, cpu

let self_rss_mb () = Timing.vm_hwm_mb "self"

(* The end-to-end metrics every workload reports. *)
let end_to_end env ~setup_s ~latencies ~rss_mb =
  [
    Timing.metric ~samples:(setup_reps env) "setup_s" "s" setup_s;
    Timing.metric ~samples:(List.length latencies) "latency_ms_p50" "ms"
      (Timing.median latencies);
    Timing.metric "peak_rss_mb" "MB" rss_mb;
  ]

(* Per-layer numbers of the operation itself, from a traced run that
   alternates [traced] and [untraced] operations: the p90 and the CPU
   time per operation (both moved by host load by more than 10% across
   runs, so they are not end-to-end metrics) and the tracing overhead. *)
let op_layers ~untraced ~traced ~cpu_ms_per_op =
  let n = List.length in
  [
    Timing.metric ~samples:(n untraced) "latency_ms_p90" "ms"
      (Timing.percentile (Timing.sorted untraced) 0.9);
    Timing.metric ~samples:(n untraced + n traced) "cpu_ms_per_op" "ms" cpu_ms_per_op;
    Timing.metric ~samples:(n traced) "trace.overhead_pct" "%"
      (((Timing.median traced /. Timing.median untraced) -. 1.0) *. 100.0);
  ]

let fail_ratio name t =
  Timing.metric ~samples:t.attempted name "ratio"
    (float t.failed /. float (max 1 t.attempted))
