(* The serve_mixed workload: one connection (one system thread) to a
   child [hem_tool serve --jobs 1] daemon.  The connection holds a
   paper.spec session and a generated 16-ECU network session.  The op
   mix is 80% edit (writes that cycle every session through a bounded
   set of specs), 15% analyse (reads that hit the daemon's single-flight
   cache) and 5% load + close of an 8-ECU network text (cold churn).
   Phases: half the run closed loop (the end-to-end numbers), 25% open
   loop at [base_rate], then a x1.1 rate ladder.  Open-loop requests are
   timed from when they were due, so a stall also counts against the
   requests queued behind it. *)

module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module Engine = Cpa_system.Engine
module Space = Explore.Space
module Client = Serve.Client
module Protocol = Serve.Protocol
module Json = Protocol.Json
module Interval = Timebase.Interval
module Busy_window = Scheduling.Busy_window

(* One connection to a daemon with one worker.  With two of each the
   closed-loop latency was made of wake-ups across both vCPUs of a
   shared host, and its run-to-run spread was three times that of one
   connection run by [run.sh] on a single CPU. *)
let connections = 1
let daemon_jobs = "1"

(* The fixed open-loop rate, in ops/s over all connections; the ladder
   climbs from it in x1.1 steps.  The closed loop completes about 1600
   ops/s on one CPU, and an open loop at 1000 ops/s already missed the
   latency limit. *)
let base_rate = 500.0

(* The p99 latency a ladder step may reach and still count as served. *)
let latency_limit_ms = 10.0
let ladder_step_s = 1.5
let warmup_ops env = if env.Harness.smoke then 20 else 300

(* ------------------------------------------------------------------ *)
(* Sessions and their edit knobs *)

(* A knob is a set of states, [states.(i)] being the edit that puts the
   knob into state [i]; every edit flips one knob, so a session only
   ever visits a bounded set of specs. *)
type knob = {
  states : Space.edit array;
  mutable cur : int;
}

type session = {
  base : Spec_file.t;
  text : string;
  knobs : knob array;
  mutable id : string;
  mutable edits : Space.edit list;  (** applied edits, newest first *)
}

let knob states = { states = Array.of_list states; cur = 0 }

let cet_knob task =
  knob [ Space.Cet_scale { task; percent = 50 }; Space.Cet_scale { task; percent = 200 } ]

let priority_knob task priorities =
  knob (List.map (fun priority -> Space.Task_priority { task; priority }) priorities)

let jitter_of (d : Spec_file.t) name =
  match
    List.find (fun (s : Spec_file.source) -> s.source_name = name) d.sources
  with
  | { desc = Spec_file.Periodic_jitter { period; jitter; _ }; _ } -> period, jitter
  | _ -> invalid_arg name

let period_knob d source offsets =
  let period, jitter = jitter_of d source in
  knob
    (List.map
       (fun off ->
         Space.Source_jitter { source; period = period + off; jitter; d_min = 0 })
       offsets)

let session base knobs =
  { base; text = Spec_file.print base; knobs = Array.of_list knobs; id = ""; edits = [] }

let paper_session env =
  let d = snd (Corpus.example ~root:env.Harness.root "examples/paper.spec") in
  session d
    [
      knob
        (List.map
           (fun period -> Space.Source_period { source = "s3"; period })
           [ 1000; 800; 1200 ]);
      cet_knob "t3";
      priority_knob "t1" [ 1; 4 ];
    ]

let network_session env =
  let d = Corpus.network ~seed:env.Harness.seed ~ecus:16 in
  session d
    [
      period_knob d "S3" [ 0; 500 ];
      period_knob d "S9" [ 0; 300; 700 ];
      cet_knob "proc5";
      priority_knob "recv6" [ 6; 1 ];
    ]

let churn_texts env =
  List.init 4 (fun k ->
    Spec_file.print (Corpus.network ~seed:((env.Harness.seed * 10) + k + 1) ~ecus:8))

(* Outcomes rendered the way the daemon renders them. *)
let outcomes_json (outcomes : Engine.element_outcome list) =
  Json.Arr
    (List.map
       (fun (o : Engine.element_outcome) ->
         let common = [ "element", Json.Str o.element; "resource", Json.Str o.resource ] in
         match o.outcome with
         | Busy_window.Bounded r ->
           Json.Obj
             (common
             @ [ "outcome", Json.Str "bounded"; "lo", Json.Int (Interval.lo r);
                 "hi", Json.Int (Interval.hi r) ])
         | Busy_window.Unbounded reason ->
           Json.Obj (common @ [ "outcome", Json.Str "unbounded"; "reason", Json.Str reason ]))
       outcomes)
  |> Json.to_string

let offline_outcomes spec =
  match Engine.analyse spec with
  | Ok r -> outcomes_json r.outcomes
  | Error e -> "error: " ^ Guard.Error.to_string e

let reply_outcomes (reply : Protocol.reply) =
  Option.map Json.to_string (Json.member "outcomes" reply.body)

(* ------------------------------------------------------------------ *)
(* Daemon *)

type daemon = {
  pid : int;
  conns : (Client.t * session array * Random.State.t) array;
}

let socket_path env =
  Filename.concat env.Harness.out_dir (Printf.sprintf "hem-%d.sock" (Unix.getpid ()))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let ns_of_s s = Int64.of_float (s *. 1e9)
let past deadline = Int64.compare (Timing.now_ns ()) deadline >= 0
let after s = Int64.add (Timing.now_ns ()) (ns_of_s s)

let wait_exit pid =
  let deadline = after 10.0 in
  let rec go () =
    if exited pid then ()
    else if past deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let spawn env =
  let log =
    Unix.openfile (Filename.concat env.Harness.out_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process env.daemon
      [| env.daemon; "serve"; "--socket"; socket_path env; "--jobs"; daemon_jobs |]
      Unix.stdin log log
  in
  Unix.close log;
  pid

let ok_reply what = function
  | Ok (r : Protocol.reply) when r.status = Protocol.Success -> r
  | Ok r ->
    failwith
      (Printf.sprintf "%s: status %s" what (Protocol.status_name r.status))
  | Error e -> failwith (what ^ ": " ^ e)

let connect env pid =
  let deadline = after 10.0 in
  let rec go () =
    if exited pid then failwith "daemon exited before it was ready";
    match Client.connect (`Unix (socket_path env)) with
    | Ok c -> c
    | Error _ when not (past deadline) ->
      Unix.sleepf 0.001;
      go ()
    | Error e -> failwith ("daemon not ready: " ^ e)
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Operations *)

type kind =
  | Edit
  | Analyse
  | Churn

type record = {
  phase : int;
  kind : kind;
  due : int64;
  sent : int64;
  finished : int64;
  ok : bool;
  rejected : bool;
  load_ms : float;  (** churn only: the load round trip *)
  captured : (Protocol.op * Protocol.reply) option;  (** traced runs *)
}

let status_ok t what = function
  | Ok (r : Protocol.reply) when r.status = Protocol.Success -> true, false
  | Ok r ->
    Harness.fail t "%s: status %s" what (Protocol.status_name r.status);
    false, r.status = Protocol.Cancelled
  | Error e ->
    Harness.fail t "%s: %s" what e;
    false, false

(* Three requests in four go to the paper session: a network edit costs
   tens of times a paper edit (its impact closure spans a whole bus), so
   an even split would make the network session the only thing
   measured. *)
let pick_session sessions rng =
  sessions.(if Random.State.int rng 4 = 0 then 1 else 0)

(* One operation of the mix on one connection; returns success,
   rejection, the churn load time and (when [capture]) the last request
   with its reply. *)
let operation t ~churn ~expected ~capture (client, sessions, rng) kind =
  let request what op =
    Spans.span ("serve." ^ what) (fun () -> Client.request client op)
  in
  let captured op r =
    if capture then Option.map (fun r -> op, r) (Result.to_option r) else None
  in
  match kind with
  | Edit ->
    let s = pick_session sessions rng in
    let k = s.knobs.(Random.State.int rng (Array.length s.knobs)) in
    let n = Array.length k.states in
    let next = (k.cur + 1 + Random.State.int rng (n - 1)) mod n in
    let edit = k.states.(next) in
    let op = Protocol.Edit { session = s.id; edits = [ edit ] } in
    let r = request "edit" op in
    let ok, rejected = status_ok t "edit" r in
    if ok then begin
      k.cur <- next;
      s.edits <- edit :: s.edits
    end;
    ok, rejected, 0.0, captured op r
  | Analyse ->
    let s = pick_session sessions rng in
    let op = Protocol.Analyse { session = s.id } in
    let r = request "analyse" op in
    let ok, rejected = status_ok t "analyse" r in
    ok, rejected, 0.0, captured op r
  | Churn ->
    let i = Random.State.int rng (Array.length churn) in
    let op = Protocol.Load { spec_text = churn.(i); mode = None } in
    let r, load_ms = Timing.time_ms (fun () -> request "load" op) in
    let ok, rejected = status_ok t "load" r in
    let ok =
      ok
      &&
      match r with
      | Ok reply when reply_outcomes reply = Some expected.(i) -> begin
        match Client.session_id reply with
        | None -> false
        | Some id ->
          fst (status_ok t "close" (request "close" (Protocol.Close { session = id })))
      end
      | _ ->
        Harness.fail t "load: outcomes differ from the offline analysis";
        false
    in
    ok, rejected, load_ms, captured op r

let pick_kind rng =
  let u = Random.State.int rng 100 in
  if u < 80 then Edit else if u < 95 then Analyse else Churn

(* ------------------------------------------------------------------ *)
(* Phases *)

type phase = {
  rate : float option;  (** ops/s over all connections; [None] = closed loop *)
  start_s : float;
  length_s : float;
}

(* Half the run closed loop, a quarter at [base_rate], a quarter on the
   ladder. *)
let phases seconds =
  let closed = 0.5 *. seconds and fixed = 0.25 *. seconds in
  let ladder = seconds -. closed -. fixed in
  let steps = max 1 (int_of_float (ladder /. ladder_step_s)) in
  let step = ladder /. float steps in
  { rate = None; start_s = 0.0; length_s = closed }
  :: { rate = Some base_rate; start_s = closed; length_s = fixed }
  :: List.init steps (fun i ->
       { rate = Some (base_rate *. (1.1 ** float (i + 1)));
         start_s = closed +. fixed +. (float i *. step); length_s = step })

(* One connection's share of the schedule.  In the closed loop the next
   request goes out when the previous reply is in; in an open-loop phase
   the connection takes every [connections]-th due time, offset from the
   others, and sleeps until each is due. *)
let drive t ~churn ~expected ~capture ~t0 ~hard_end ~index phases conn =
  let _, _, rng = conn in
  let records = ref [] and count = ref 0 in
  let request p due =
    let sent = Timing.now_ns () in
    incr count;
    let kind = pick_kind rng in
    let ok, rejected, load_ms, captured =
      Spans.span ~req:((index * 1_000_000) + !count) "serve.request" (fun () ->
        operation t ~churn ~expected ~capture:(capture && !count <= 500) conn kind)
    in
    Harness.attempt t 1;
    records :=
      { phase = p; kind; due = Option.value due ~default:sent; sent;
        finished = Timing.now_ns (); ok; rejected; load_ms; captured }
      :: !records
  in
  List.iteri
    (fun p ph ->
      let at s = Int64.add t0 (ns_of_s s) in
      match ph.rate with
      | None ->
        while not (past (at (ph.start_s +. ph.length_s))) do
          request p None
        done
      | Some rate ->
        let interval = float connections /. rate in
        let offset = float index /. rate in
        for k = 0 to int_of_float (ph.length_s /. interval) - 1 do
          let due = at (ph.start_s +. (float k *. interval) +. offset) in
          if not (past hard_end) then begin
            let now = Timing.now_ns () in
            if Int64.compare now due < 0 then
              Unix.sleepf (Int64.to_float (Int64.sub due now) /. 1e9);
            request p (Some due)
          end
        done)
    phases;
  List.rev !records

let latency_ms r = Int64.to_float (Int64.sub r.finished r.due) /. 1e6
let lateness_ms r = Int64.to_float (Int64.sub r.sent r.due) /. 1e6

(* A step is served when its p99 stays under the limit, no request
   failed, and the generator's lateness did not grow across the step. *)
let served records =
  match records with
  | [] -> false
  | _ ->
    let a = Array.of_list (List.sort (fun x y -> Int64.compare x.due y.due) records) in
    let n = Array.length a in
    let q = max 1 (n / 4) in
    let late lo = Timing.median (List.map lateness_ms (Array.to_list (Array.sub a lo q))) in
    Timing.percentile (Timing.sorted (List.map latency_ms records)) 0.99 <= latency_limit_ms
    && List.for_all (fun r -> r.ok) records
    && late (n - q) <= late 0 +. 1.0

(* The highest rate of the unbroken run of served open-loop phases. *)
let max_rate phases records =
  let rec climb best p = function
    | [] -> best
    | { rate = None; _ } :: rest -> climb best (p + 1) rest
    | { rate = Some rate; _ } :: rest ->
      if served (List.filter (fun r -> r.phase = p) records) then climb rate (p + 1) rest
      else best
  in
  climb 0.0 0 phases

(* ------------------------------------------------------------------ *)
(* Replays (traced runs) *)

(* The daemon's edit handler, in process: the same fold over touched
   elements, impact closure on both specs, warm update and delta, over
   the first [limit] edits the session received. *)
let replay_edits ~limit (s : session) =
  let service_us = ref [] and update_us = ref [] and reused = ref [] in
  (match Engine.warm (Spec_file.to_spec s.base) with
   | Error _ -> ()
   | Ok (w, r0) ->
     let spec = ref (Spec_file.to_spec s.base) and last = ref r0.outcomes in
     List.iter
       (fun edit ->
         let t0 = Timing.now_ns () in
         let sources, elements = Space.touched !spec edit in
         let next = Space.apply !spec edit in
         let stale =
           List.sort_uniq String.compare
             (Engine.affected !spec ~sources ~elements
             @ Engine.affected next ~sources ~elements)
         in
         let r, ms = Timing.time_ms (fun () -> Engine.warm_update w ~spec:next ~stale) in
         (match r with
          | Ok r ->
            ignore (outcomes_json (Engine.delta_outcomes ~before:!last ~after:r.outcomes));
            last := r.outcomes;
            reused := float r.stats.resources_reused :: !reused
          | Error _ -> ());
         spec := next;
         update_us := (ms *. 1e3) :: !update_us;
         service_us := (Timing.ms_since t0 *. 1e3) :: !service_us)
       (List.filteri (fun i _ -> i < limit) (List.rev s.edits)));
  !service_us, !update_us, !reused

let replay_protocol records =
  let encode = ref [] and decode = ref [] in
  List.iteri
    (fun i r ->
      match r.captured with
      | None -> ()
      | Some (op, reply) ->
        let _, ms =
          Timing.time_ms (fun () ->
            Json.to_string (Protocol.request_to_json (Protocol.request ~id:(i + 1) op)))
        in
        encode := (ms *. 1e3) :: !encode;
        let payload = Json.to_string (Protocol.reply_to_json reply) in
        let _, ms =
          Timing.time_ms (fun () ->
            Result.bind (Json.of_string payload) Protocol.reply_of_json)
        in
        decode := (ms *. 1e3) :: !decode)
    records;
  !encode, !decode

(* ------------------------------------------------------------------ *)
(* Workload *)

let run env =
  let t = Harness.tally () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let churn = Array.of_list (churn_texts env) in
  (* bench-side references, outside the timed set-up *)
  let expected =
    Array.map
      (fun text ->
        match Spec_file.parse text with
        | Ok d -> offline_outcomes (Spec_file.to_spec d)
        | Error e -> "parse: " ^ e)
      churn
  in
  let live = ref [] in
  let kill_all () =
    List.iter
      (fun pid ->
        if not (exited pid) then begin
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          wait_exit pid
        end)
      !live
  in
  Fun.protect ~finally:kill_all @@ fun () ->
  let start () =
    let pid = spawn env in
    live := pid :: !live;
    let conns =
      Array.init connections (fun c ->
        let client = connect env pid in
        let sessions = [| paper_session env; network_session env |] in
        Array.iter
          (fun s ->
            match Client.session_id (ok_reply "load" (Client.load client ~spec:s.text)) with
            | Some id -> s.id <- id
            | None -> failwith "load: no session id")
          sessions;
        client, sessions, Corpus.rng ~seed:env.seed ("serve", c))
    in
    let d = { pid; conns } in
    Array.iter
      (fun conn ->
        let _, _, rng = conn in
        for _ = 1 to warmup_ops env do
          Harness.attempt t 1;
          ignore (operation t ~churn ~expected ~capture:false conn (pick_kind rng))
        done)
      d.conns;
    d
  in
  let dispose d =
    let client, _, _ = d.conns.(0) in
    ignore (Client.shutdown client);
    Array.iter (fun (c, _, _) -> Client.close c) d.conns;
    wait_exit d.pid
  in
  let d, setup_s = Harness.repeated_setup env ~dispose start in
  let phases = phases env.seconds in
  let closed_s = (List.hd phases).length_s in
  let t0 = Int64.add (Timing.now_ns ()) 1_000_000L in
  let hard_end = Int64.add t0 (ns_of_s (env.seconds +. 5.0)) in
  let sleep_until s =
    let left = Int64.sub (Int64.add t0 (ns_of_s s)) (Timing.now_ns ()) in
    if Int64.compare left 0L > 0 then Unix.sleepf (Int64.to_float left /. 1e9)
  in
  let cpu () = Timing.self_cpu_ms () +. Timing.cpu_ms_of_pid d.pid in
  (* one system thread per connection: a client thread blocks in sleeps
     and socket reads, so it shares the runtime lock without contention
     and, unlike a domain, never stops another for a collection *)
  let threads =
    Array.to_list d.conns
    |> List.mapi (fun index conn ->
         let out = ref [] in
         ( Thread.create
             (fun () ->
               out :=
                 drive t ~churn ~expected ~capture:env.traced ~t0 ~hard_end ~index
                   phases conn)
             (),
           out ))
  in
  (* CPU time (bench + daemon) is taken over the closed loop only; a
     traced run records spans from the middle of the closed loop on, so
     its two halves give the tracing overhead *)
  sleep_until 0.0;
  let cpu0 = cpu () in
  sleep_until (closed_s /. 2.0);
  if env.traced then Spans.enable ();
  sleep_until closed_s;
  let cpu_closed = cpu () -. cpu0 in
  let records = List.concat_map (fun (th, out) -> Thread.join th; !out) threads in
  Spans.disable ();
  (* every session must read back exactly what an offline analysis of
     its mirrored spec gives *)
  Array.iter
    (fun (client, sessions, _) ->
      Array.iter
        (fun s ->
          Harness.attempt t 1;
          let mirrored = Space.apply_all (Spec_file.to_spec s.base) (List.rev s.edits) in
          match Client.analyse client ~session:s.id with
          | Ok reply
            when reply.status = Protocol.Success
                 && reply_outcomes reply = Some (offline_outcomes mirrored) -> ()
          | _ -> Harness.fail t "session %s: final analyse differs from offline" s.id)
        sessions)
    d.conns;
  let rss_mb = max (Harness.self_rss_mb ()) (Timing.vm_hwm_mb (string_of_int d.pid)) in
  dispose d;
  let pct p xs = Timing.percentile (Timing.sorted xs) p in
  let in_phase p = List.filter (fun r -> r.phase = p) records in
  List.iteri
    (fun p ph ->
      let rs = in_phase p in
      let l = List.map latency_ms rs in
      Printf.printf "  %-12s n=%-6d p50 %.3f ms  p99 %.3f ms  late p50 %.3f ms%s\n"
        (match ph.rate with None -> "closed loop" | Some r -> Printf.sprintf "%.0f ops/s" r)
        (List.length rs) (pct 0.5 l) (pct 0.99 l)
        (Timing.median (List.map lateness_ms rs))
        (if ph.rate = None || served rs then "" else "  (not served)"))
    phases;
  let closed = in_phase 0 in
  let closed_latency = List.map latency_ms closed in
  let untraced, traced =
    List.partition
      (fun r -> Int64.compare r.sent (Int64.add t0 (ns_of_s (closed_s /. 2.0))) < 0)
      closed
  in
  let fixed_latency = List.map latency_ms (in_phase 1) in
  let max_rate = max_rate phases records in
  let tail stem xs =
    Timing.metric ~samples:(List.length xs) (stem ^ "_p99") "ms" (pct 0.99 xs)
  in
  let named =
    Timing.p50_p90 "serve.latency_ms" "ms" closed_latency
    @ [ tail "serve.latency_ms" closed_latency;
        Timing.metric "serve.closed_loop_ops" "1/s"
          (float (List.length closed) /. closed_s) ]
    @ Timing.p50_p90 "serve.r500.latency_ms" "ms" fixed_latency
    @ [ tail "serve.r500.latency_ms" fixed_latency;
        Timing.metric "serve.max_rate_ops" "1/s" max_rate;
        Harness.fail_ratio "serve.fail_ratio" t ]
  in
  let layers =
    if not env.traced then []
    else begin
      let _, sessions, _ = d.conns.(0) in
      (* at most 1000 edits, shared between the sessions as the traffic
         shared them, so that the medians weigh each kind of edit as the
         closed loop did *)
      let edits s = List.length s.edits in
      let total = Array.fold_left (fun n s -> n + edits s) 0 sessions in
      let limit s = edits s * min total 1000 / max 1 total in
      let replays =
        Array.to_list (Array.map (fun s -> replay_edits ~limit:(limit s) s) sessions)
      in
      let service = List.concat_map (fun (a, _, _) -> a) replays in
      let update = List.concat_map (fun (_, b, _) -> b) replays in
      let reused = List.concat_map (fun (_, _, c) -> c) replays in
      let encode, decode = replay_protocol records in
      let untraced_latency = List.map latency_ms untraced in
      let service_us = Timing.median service in
      let m = Timing.metric in
      let median_us name xs = m ~samples:(List.length xs) name "us" (Timing.median xs) in
      [
        median_us "serve.service_us" service;
        median_us "engine.warm_update_us" update;
        m "serve.overhead_us" "us" ((Timing.median untraced_latency *. 1e3) -. service_us);
        median_us "serve.protocol.encode_us" encode;
        median_us "serve.protocol.decode_us" decode;
        m ~samples:(List.length records) "serve.reject_ratio" "ratio"
          (float (List.length (List.filter (fun r -> r.rejected) records))
          /. float (max 1 (List.length records)));
        m ~samples:(List.length fixed_latency) "serve.generator_late_ms_p99" "ms"
          (pct 0.99 (List.map lateness_ms (in_phase 1)));
        m "serve.load_ms_p50" "ms"
          (Timing.median
             (List.filter_map
                (fun r -> if r.kind = Churn then Some r.load_ms else None)
                records));
        m ~samples:(List.length reused) "serve.resources_reused_per_edit" "count"
          (Timing.mean reused);
      ]
      @ Harness.op_layers ~untraced:untraced_latency ~traced:(List.map latency_ms traced)
          ~cpu_ms_per_op:(cpu_closed /. float (max 1 (List.length closed)))
      @ List.filter
          (fun (x : Timing.metric) -> String.starts_with ~prefix:"serve.r500" x.name
                                     || x.name = "serve.max_rate_ops")
          named
    end
  in
  {
    Harness.tally = t;
    end_to_end =
      Harness.end_to_end env ~setup_s ~latencies:closed_latency ~rss_mb;
    layers;
    named;
  }
