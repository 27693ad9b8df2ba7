module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module Space = Explore.Space
module Pool = Explore.Pool
module Busy_window = Scheduling.Busy_window
module Interval = Timebase.Interval
module Json = Protocol.Json

let log_src = Logs.Src.create "serve.server" ~doc:"analysis daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_requests = Obs.Metrics.counter "serve.requests"
let c_rejected = Obs.Metrics.counter "serve.rejected"
let c_protocol_errors = Obs.Metrics.counter "serve.protocol_errors"
let h_request = Obs.Hist.hist "serve.request_ns"

type config = {
  unix_path : string option;
  tcp : (string * int) option;
  jobs : int;
  mode : Engine.mode;
  propagation : Event_model.Propagation.mode option;
  max_sessions : int;
  max_frame : int;
  max_queue : int;
  default_deadline_ms : float option;
  default_budget : int option;
  drain_ms : float;
}

let config ?unix_path ?tcp ?jobs ?(mode = Engine.Hierarchical) ?propagation
    ?(max_sessions = 64) ?(max_frame = Protocol.default_max_frame)
    ?(max_queue = 64) ?default_deadline_ms ?default_budget
    ?(drain_ms = 5000.) () =
  {
    unix_path;
    tcp;
    jobs = (match jobs with Some j -> j | None -> Pool.default_jobs ());
    mode;
    propagation;
    max_sessions;
    max_frame;
    max_queue;
    default_deadline_ms;
    default_budget;
    drain_ms;
  }

(* ------------------------------------------------------------------ *)
(* Reply bodies *)

let outcome_json (o : Engine.element_outcome) =
  let common =
    [ "element", Json.Str o.element; "resource", Json.Str o.resource ]
  in
  match o.outcome with
  | Busy_window.Bounded r ->
    Json.Obj
      (common
      @ [ "outcome", Json.Str "bounded"; "lo", Json.Int (Interval.lo r);
          "hi", Json.Int (Interval.hi r) ])
  | Busy_window.Unbounded reason ->
    Json.Obj
      (common
      @ [ "outcome", Json.Str "unbounded"; "reason", Json.Str reason ])

let outcomes_json outs = Json.Arr (List.map outcome_json outs)

let stats_json (st : Engine.stats) =
  Json.Obj
    [ "resources-analysed", Json.Int st.resources_analysed;
      "resources-reused", Json.Int st.resources_reused;
      "streams-invalidated", Json.Int st.streams_invalidated ]

(* A converged/overloaded result replies Success; a degraded one carries
   the partial body under the taxonomy's own status code, exactly like
   the CLI maps degradations onto exit codes. *)
let result_reply ~id body (r : Engine.result) =
  match r.status with
  | Engine.Converged | Engine.Overloaded -> Protocol.ok ~id body
  | Engine.Degraded d -> Protocol.fail ~body ~id d.reason

let unknown_session ~id session =
  Protocol.fail ~id
    (Guard.Error.Invalid_spec { reason = "unknown session " ^ session })

(* ------------------------------------------------------------------ *)
(* Server state *)

type slot = {
  s_lock : Mutex.t;
  s_cond : Condition.t;
  mutable s_reply : Protocol.reply option;
}

type t = {
  cfg : config;
  service : Pool.Service.t;
  table : Session.table;
  stopping : bool Atomic.t;
  stop_w : Unix.file_descr;
  guards_lock : Mutex.t;
  mutable active_guards : Guard.t list;
}

let initiate_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    try ignore (Unix.write_substring t.stop_w "x" 0 1) with _ -> ()
  end

let register_guard t g =
  Mutex.lock t.guards_lock;
  t.active_guards <- g :: t.active_guards;
  Mutex.unlock t.guards_lock

let unregister_guard t g =
  Mutex.lock t.guards_lock;
  t.active_guards <- List.filter (fun g' -> g' != g) t.active_guards;
  Mutex.unlock t.guards_lock

let cancel_active_guards t =
  Mutex.lock t.guards_lock;
  let gs = t.active_guards in
  Mutex.unlock t.guards_lock;
  List.iter Guard.cancel gs

(* ------------------------------------------------------------------ *)
(* Handlers (worker-domain side) *)

let handle_load t (s : Session.t) ~id ~mode ~guard =
  let mode = Option.value mode ~default:t.cfg.mode in
  match Engine.warm ~mode ~guard s.spec with
  | Error e ->
    Session.remove t.table s.id;
    Protocol.fail ~id e
  | Ok (w, r) ->
    s.warm <- Some w;
    s.last_outcomes <- r.outcomes;
    let body =
      Json.Obj
        [ "session", Json.Str s.id;
          "mode", Json.Str (Engine.mode_name mode);
          "status", Json.Str (Engine.status_name r.status);
          "iterations", Json.Int r.iterations;
          "outcomes", outcomes_json r.outcomes;
          "stats", stats_json r.stats ]
    in
    result_reply ~id body r

let handle_edit (s : Session.t) ~id ~edits ~guard =
  match s.warm with
  | None ->
    unknown_session ~id s.id  (* load failed or still warming *)
  | Some w -> begin
    match
      (* fold the edits over the evolving spec, collecting the touched
         sources/elements of each against the spec it applies to *)
      List.fold_left
        (fun (sp, srcs, els) e ->
          let s', e' = Space.touched sp e in
          Space.apply sp e, s' @ srcs, e' @ els)
        (s.spec, [], []) edits
    with
    | exception Not_found ->
      Protocol.fail ~id
        (Guard.Error.Invalid_spec
           { reason = "edit names an unknown element" })
    | exception Invalid_argument reason ->
      Protocol.fail ~id (Guard.Error.Invalid_spec { reason })
    | new_spec, sources, elements -> begin
      (* the impact closure must cover the topology before AND after
         the edit: a repack's old frames only exist in the former, its
         replacement frames only in the latter *)
      let stale =
        List.sort_uniq String.compare
          (Engine.affected s.spec ~sources ~elements
          @ Engine.affected new_spec ~sources ~elements)
      in
      let before = s.last_outcomes in
      match Engine.warm_update ~guard w ~spec:new_spec ~stale with
      | Error e -> Protocol.fail ~id e
      | Ok r ->
        s.spec <- new_spec;
        s.edit_count <- s.edit_count + List.length edits;
        s.last_outcomes <- r.outcomes;
        let changed =
          Engine.delta_outcomes ~before ~after:r.outcomes
        in
        let removed =
          List.filter_map
            (fun (b : Engine.element_outcome) ->
              if
                List.exists
                  (fun (a : Engine.element_outcome) ->
                    String.equal a.element b.element)
                  r.outcomes
              then None
              else Some (Json.Str b.element))
            before
        in
        let body =
          Json.Obj
            [ "session", Json.Str s.id;
              "status", Json.Str (Engine.status_name r.status);
              "iterations", Json.Int r.iterations;
              "changed", outcomes_json changed;
              "removed", Json.Arr removed;
              "stale", Json.Arr (List.map (fun n -> Json.Str n) stale);
              "stats", stats_json r.stats ]
        in
        result_reply ~id body r
    end
  end

(* The warm context is the session's only cache: on a converged session
   this is a read-back of the fixed point; after a degraded or overloaded
   run it rebuilds under this request's guard. *)
let handle_analyse (s : Session.t) ~id ~guard =
  match s.warm with
  | None -> unknown_session ~id s.id
  | Some w -> begin
    match Engine.warm_update ~guard w ~spec:s.spec ~stale:[] with
    | Error e -> Protocol.fail ~id e
    | Ok r ->
      let body =
        Json.Obj
          [ "session", Json.Str s.id;
            "status", Json.Str (Engine.status_name r.status);
            "iterations", Json.Int r.iterations;
            "outcomes", outcomes_json r.outcomes ]
      in
      result_reply ~id body r
  end

let handle_metrics t (s : Session.t) ~id =
  let counters =
    Json.Obj
      (List.map
         (fun (k, v) -> k, Json.Int v)
         (Obs.Metrics.snapshot s.scope))
  in
  Protocol.ok ~id
    (Json.Obj
       [ "session", Json.Str s.id;
         "requests", Json.Int s.requests;
         "edits", Json.Int s.edit_count;
         "sessions", Json.Int (Session.count t.table);
         "evictions", Json.Int (Session.evictions t.table);
         "counters", counters;
         "process", Obs.Snapshot.to_json_value (Obs.Snapshot.capture ()) ])

let handle_close t (s : Session.t) ~id =
  Session.remove t.table s.id;
  Protocol.ok ~id (Json.Obj [ "closed", Json.Bool true ])

(* ------------------------------------------------------------------ *)
(* Dispatch (connection-thread side) *)

let admission_reject ~id reason =
  Obs.Metrics.incr c_rejected;
  Protocol.fail ~message:reason ~id Guard.Error.Cancelled

(* Run [job] on the session's pinned worker and wait for its reply.
   The wrapper owns checkin, guard registration and the per-session
   metrics scope; [job] gets the per-request guard. *)
let dispatch t (s : Session.t) ~id job =
  if Pool.Service.depth t.service ~worker:s.worker > t.cfg.max_queue then begin
    Session.checkin t.table s;
    admission_reject ~id "admission: worker queue full"
  end
  else begin
    let slot =
      { s_lock = Mutex.create (); s_cond = Condition.create ();
        s_reply = None }
    in
    let deliver reply =
      Mutex.lock slot.s_lock;
      slot.s_reply <- Some reply;
      Condition.signal slot.s_cond;
      Mutex.unlock slot.s_lock
    in
    let accepted =
      Pool.Service.submit t.service ~worker:s.worker (fun () ->
        let reply =
          Fun.protect
            ~finally:(fun () -> Session.checkin t.table s)
            (fun () ->
              match
                Obs.Metrics.in_scope s.scope (fun () ->
                  let t0 =
                    if Obs.Hist.enabled () then Obs.Trace.now_us () else 0.0
                  in
                  let r = job () in
                  if Obs.Hist.enabled () then
                    Obs.Hist.record h_request
                      (int_of_float ((Obs.Trace.now_us () -. t0) *. 1e3));
                  r)
              with
              | reply -> reply
              | exception Guard.Error.Error e -> Protocol.fail ~id e
              | exception e ->
                Protocol.fail ~id
                  (Guard.Error.Invalid_spec
                     { reason = "internal error: " ^ Printexc.to_string e }))
        in
        deliver reply)
    in
    if not accepted then begin
      Session.checkin t.table s;
      admission_reject ~id "draining: request rejected"
    end
    else begin
      Mutex.lock slot.s_lock;
      while slot.s_reply = None do
        Condition.wait slot.s_cond slot.s_lock
      done;
      let reply = Option.get slot.s_reply in
      Mutex.unlock slot.s_lock;
      reply
    end
  end

let with_request_guard t (req : Protocol.request) f =
  let deadline_ms =
    match req.deadline_ms with
    | Some d -> Some d
    | None -> t.cfg.default_deadline_ms
  in
  let budget =
    match req.budget with Some b -> Some b | None -> t.cfg.default_budget
  in
  let guard = Guard.create ?deadline_ms ?budget () in
  register_guard t guard;
  Fun.protect ~finally:(fun () -> unregister_guard t guard) (fun () -> f guard)

let dispatch_to_session t ~id ~session job =
  match Session.checkout t.table session with
  | None -> unknown_session ~id session
  | Some s -> dispatch t s ~id (fun () -> job s)

let handle_request t (req : Protocol.request) =
  Obs.Metrics.incr c_requests;
  let id = req.req_id in
  if Atomic.get t.stopping then
    match req.op with
    | Protocol.Ping ->
      Protocol.ok ~id
        (Json.Obj [ "pong", Json.Bool true; "draining", Json.Bool true ])
    | _ -> admission_reject ~id "draining: request rejected"
  else
    match req.op with
    | Protocol.Ping ->
      Protocol.ok ~id
        (Json.Obj
           [ "pong", Json.Bool true;
             "sessions", Json.Int (Session.count t.table);
             "jobs", Json.Int (Pool.Service.jobs t.service);
             "draining", Json.Bool false ])
    | Protocol.Shutdown ->
      (* the reply is written by the caller before the listeners close;
         draining starts immediately after *)
      Protocol.ok ~id (Json.Obj [ "stopping", Json.Bool true ])
    | Protocol.Load { spec_text; mode = mode_name } -> begin
      match
        match mode_name with
        | None -> Ok None
        | Some m -> begin
          match Engine.mode_of_name m with
          | Some mode -> Ok (Some mode)
          | None -> Error ("unknown mode " ^ m)
        end
      with
      | Error reason ->
        Protocol.fail ~id (Guard.Error.Invalid_spec { reason })
      | Ok mode -> begin
        match Spec_file.parse spec_text with
        | Error reason ->
          Protocol.fail ~id (Guard.Error.Parse_failure { reason })
        | Ok base -> begin
          (* the spec is built here but only ever *touched* on the
             session's pinned worker; the mailbox lock is the
             happens-before edge *)
          let spec = Spec_file.to_spec base in
          let spec =
            match t.cfg.propagation with
            | None -> spec
            | Some m -> Spec.with_propagation m spec
          in
          match Session.register t.table ~spec with
          | Error reason -> admission_reject ~id ("admission: " ^ reason)
          | Ok s ->
            dispatch t s ~id (fun () ->
              with_request_guard t req (fun guard ->
                handle_load t s ~id ~mode ~guard))
        end
      end
    end
    | Protocol.Edit { session; edits } ->
      dispatch_to_session t ~id ~session (fun s ->
        with_request_guard t req (fun guard ->
          handle_edit s ~id ~edits ~guard))
    | Protocol.Analyse { session } ->
      dispatch_to_session t ~id ~session (fun s ->
        with_request_guard t req (fun guard ->
          handle_analyse s ~id ~guard))
    | Protocol.Metrics { session } ->
      dispatch_to_session t ~id ~session (fun s -> handle_metrics t s ~id)
    | Protocol.Close { session } ->
      dispatch_to_session t ~id ~session (fun s -> handle_close t s ~id)

(* ------------------------------------------------------------------ *)
(* Connection loop *)

let send fd reply =
  match
    Protocol.write_frame fd (Json.to_string (Protocol.reply_to_json reply))
  with
  | () -> true
  | exception Unix.Unix_error _ -> false

let handle_connection t fd =
  let reader = Protocol.reader fd in
  let rec loop () =
    match Protocol.read_frame ~max_frame:t.cfg.max_frame reader with
    | Error Protocol.Closed -> ()
    | Error e ->
      (* header/payload desync is unrecoverable: best-effort fault
         reply, then drop the connection *)
      Obs.Metrics.incr c_protocol_errors;
      ignore
        (send fd
           (Protocol.fail ~id:0
              (Guard.Error.Parse_failure
                 { reason = Protocol.frame_error_to_string e })))
    | Ok payload -> begin
      match
        match Json.of_string payload with
        | Error reason -> Error reason
        | Ok j -> Protocol.request_of_json j
      with
      | Error reason ->
        (* frame boundaries intact: report and keep serving *)
        Obs.Metrics.incr c_protocol_errors;
        if
          send fd
            (Protocol.fail ~id:0 (Guard.Error.Parse_failure { reason }))
        then loop ()
      | Ok req ->
        let reply =
          match handle_request t req with
          | reply -> reply
          | exception e ->
            Protocol.fail ~id:req.req_id
              (Guard.Error.Invalid_spec
                 { reason = "internal error: " ^ Printexc.to_string e })
        in
        let wrote = send fd reply in
        if req.op = Protocol.Shutdown then initiate_stop t;
        if wrote && not (req.op = Protocol.Shutdown) then loop ()
    end
  in
  (match loop () with () -> () | exception _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Listeners and accept loop *)

let unix_listener path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let tcp_listener (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let run cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Server.run: no listener configured";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_r, stop_w = Unix.pipe () in
  let service = Pool.Service.create ~jobs:cfg.jobs ~label:"serve.pool" () in
  let t =
    {
      cfg;
      service;
      (* pin against the service's clamped worker count, not the
         requested one, or sessions land on non-existent workers *)
      table =
        Session.table ~max_sessions:cfg.max_sessions
          ~jobs:(Pool.Service.jobs service) ();
      stopping = Atomic.make false;
      stop_w;
      guards_lock = Mutex.create ();
      active_guards = [];
    }
  in
  let listeners =
    (match cfg.unix_path with Some p -> [ unix_listener p ] | None -> [])
    @ match cfg.tcp with Some hp -> [ tcp_listener hp ] | None -> []
  in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> initiate_stop t))
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> initiate_stop t))
  in
  let conns_lock = Mutex.create () in
  let conns = ref [] in
  Log.info (fun m ->
    m "serving (%d workers, %d max sessions)%s%s"
      (Pool.Service.jobs t.service)
      cfg.max_sessions
      (match cfg.unix_path with
       | Some p -> Printf.sprintf " unix:%s" p
       | None -> "")
      (match cfg.tcp with
       | Some (h, p) -> Printf.sprintf " tcp:%s:%d" h p
       | None -> ""));
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.select (stop_r :: listeners) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd <> stop_r then begin
              match Unix.accept fd with
              | exception Unix.Unix_error _ -> ()
              | conn_fd, _ ->
                let th =
                  Thread.create (fun () -> handle_connection t conn_fd) ()
                in
                Mutex.lock conns_lock;
                conns := (th, conn_fd) :: !conns;
                Mutex.unlock conns_lock
            end)
          readable;
        accept_loop ()
    end
  in
  accept_loop ();
  Log.info (fun m -> m "draining");
  (* stop accepting *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    listeners;
  (match cfg.unix_path with
   | Some p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
   | None -> ());
  (* grace period: in-flight requests finish under their own guards;
     stragglers are cancelled when it elapses.  The watchdog polls a
     drained flag so a clean shutdown never waits the full period. *)
  let drained = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Obs.Clock.now_us () +. (cfg.drain_ms *. 1000.) in
        while (not (Atomic.get drained)) && Obs.Clock.now_us () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get drained) then cancel_active_guards t)
      ()
  in
  (* drains every mailbox, then joins the worker domains: every
     dispatched request gets its reply delivered *)
  Pool.Service.shutdown t.service;
  Atomic.set drained true;
  (* unblock connection readers; threads close their own fds *)
  Mutex.lock conns_lock;
  let remaining = !conns in
  Mutex.unlock conns_lock;
  List.iter
    (fun (_, fd) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    remaining;
  List.iter (fun (th, _) -> Thread.join th) remaining;
  Thread.join watchdog;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  (try Unix.close stop_r with Unix.Unix_error _ -> ());
  (try Unix.close stop_w with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "stopped")
