(* The serving layer: canonical wire codec round-trips, warm-session
   updates byte-identical to cold analysis, interleaved sessions staying
   scope-exact against a serial replay, and protocol robustness against
   malformed frames, oversized payloads and abrupt disconnects. *)

module Space = Explore.Space
module Wire = Explore.Wire
module Json = Explore.Wire.Json
module Engine = Cpa_system.Engine
module Protocol = Serve.Protocol
module Client = Serve.Client
module Session = Serve.Session
module Paper = Scenarios.Paper_system

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

(* ------------------------------------------------------------------ *)
(* Wire codec: parse ∘ print = id, and printing is canonical *)

let gen_name = QCheck.Gen.oneofl [ "s1"; "s3"; "t2"; "t3"; "f1"; "f2"; "lF" ]

let gen_edit : Space.edit QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun source period -> Space.Source_period { source; period })
        gen_name (int_range 1 5000);
      (let* source = gen_name in
       let* period = int_range 1 5000 in
       let* jitter = int_range 0 1000 in
       let* d_min = int_range 0 50 in
       return (Space.Source_jitter { source; period; jitter; d_min }));
      map2
        (fun task percent -> Space.Cet_scale { task; percent })
        gen_name (int_range 1 400);
      map2
        (fun task priority -> Space.Task_priority { task; priority })
        gen_name (int_range 1 16);
      map2
        (fun frame priority -> Space.Frame_priority { frame; priority })
        gen_name (int_range 1 16);
      (let* frame = gen_name in
       let* lo = int_range 1 20 in
       let* len = int_range 0 20 in
       return
         (Space.Frame_tx
            { frame; tx = Timebase.Interval.make ~lo ~hi:(lo + len) }));
      (let* bus = gen_name in
       let* groups =
         list_size (int_range 1 3) (list_size (int_range 1 3) gen_name)
       in
       let* bits_per_signal = int_range 1 64 in
       let* bit_time = int_range 1 8 in
       return (Space.Repack { bus; groups; bits_per_signal; bit_time }));
      (let* task = oneof [ return None; map Option.some gen_name ] in
       let* mode = oneofl Event_model.Propagation.all_modes in
       return (Space.Propagation_mode { task; mode }));
    ]

let arb_edits =
  QCheck.make
    ~print:(fun edits -> Wire.print edits)
    QCheck.Gen.(list_size (int_range 0 6) gen_edit)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: parse (print edits) = edits" ~count:500
    arb_edits (fun edits ->
      match Wire.parse (Wire.print edits) with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok edits' -> edits' = edits)

let prop_wire_canonical =
  QCheck.Test.make ~name:"wire: print is canonical across a round-trip"
    ~count:500 arb_edits (fun edits ->
      let printed = Wire.print edits in
      match Wire.parse printed with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok edits' -> String.equal printed (Wire.print edits'))

let wire_rejects () =
  let bad json msg =
    match Wire.parse json with
    | Ok _ -> Alcotest.failf "accepted %s (%s)" json msg
    | Error _ -> ()
  in
  bad "{" "truncated";
  bad "[{\"edit\":\"source-period\",\"source\":\"s1\"}]" "missing field";
  bad "[{\"edit\":\"warp\",\"source\":\"s1\"}]" "unknown tag";
  bad "[1]" "not an object";
  bad "[{\"edit\":\"source-period\",\"source\":\"s1\",\"period\":1}] x"
    "trailing garbage"

(* ------------------------------------------------------------------ *)
(* Warm sessions: updates byte-identical to cold runs, with reuse *)

let outcome_line (o : Engine.element_outcome) =
  Format.asprintf "%s@%s=%a" o.Engine.element o.Engine.resource
    Scheduling.Busy_window.pp_outcome o.Engine.outcome

let outcomes_text (r : Engine.result) =
  String.concat "\n" (List.map outcome_line r.Engine.outcomes)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Guard.Error.to_string e)

let stale_for ~before ~after edit =
  let sources, elements = Space.touched before edit in
  Engine.affected before ~sources ~elements
  @ Engine.affected after ~sources ~elements
  |> List.sort_uniq String.compare

let warm_matches_cold () =
  let spec = Paper.spec () in
  let w, r0 = ok_exn "warm" (Engine.warm spec) in
  let cold0 = ok_exn "cold" (Engine.analyse spec) in
  Alcotest.(check string)
    "initial warm = cold" (outcomes_text cold0) (outcomes_text r0);
  (* an idempotent edit cycle: T3's priority 3 -> 4 -> back to 3 *)
  let specs_and_edits =
    [
      Space.Task_priority { task = "T3"; priority = 4 };
      Space.Task_priority { task = "T3"; priority = 3 };
      Space.Source_period { source = "S3"; period = 900 };
      Space.Source_period { source = "S3"; period = 1000 };
    ]
  in
  let reused_total = ref 0 in
  ignore
    (List.fold_left
       (fun before edit ->
         let after = Space.apply before edit in
         let stale = stale_for ~before ~after edit in
         let r = ok_exn "warm_update" (Engine.warm_update w ~spec:after ~stale) in
         let cold = ok_exn "cold" (Engine.analyse after) in
         Alcotest.(check string)
           (Space.edit_label edit ^ ": warm = cold")
           (outcomes_text cold) (outcomes_text r);
         reused_total := !reused_total + r.Engine.stats.Engine.resources_reused;
         after)
       spec specs_and_edits);
  Alcotest.(check bool) "warm updates reused analyses" true (!reused_total > 0);
  (* read-back: no edit, no stale — everything reused *)
  let r = ok_exn "read-back" (Engine.warm_update w ~spec ~stale:[]) in
  Alcotest.(check string)
    "read-back repeats the fixed point" (outcomes_text cold0) (outcomes_text r);
  Alcotest.(check int) "read-back analyses nothing" 0
    r.Engine.stats.Engine.resources_analysed

(* Session.register hands the new session back already checked out:
   a second register cannot evict it while its load is in flight *)
let register_checks_out () =
  let spec = Paper.spec () in
  let tbl = Session.table ~max_sessions:1 ~jobs:1 () in
  let register what =
    match Session.register tbl ~spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let s1 = register "register 1" in
  Alcotest.(check int) "registered in flight" 1 s1.Session.inflight;
  (match Session.register tbl ~spec with
  | Ok _ -> Alcotest.fail "register evicted an in-flight session"
  | Error e ->
    Alcotest.(check string) "every session is busy"
      "session table full and every session is busy" e);
  Alcotest.(check int) "nothing evicted" 0 (Session.evictions tbl);
  Session.checkin tbl s1;
  let s2 = register "register 2" in
  Alcotest.(check bool) "fresh session" true
    (not (String.equal s1.Session.id s2.Session.id));
  Alcotest.(check int) "idle session evicted" 1 (Session.evictions tbl);
  Alcotest.(check bool) "evicted id unknown" true
    (Option.is_none (Session.checkout tbl s1.Session.id))

(* LRU eviction follows the order of checkouts, however close together
   they come: each round registers A and B, touches A again, and the
   third registration must evict B *)
let eviction_follows_checkout_order () =
  let spec = Paper.spec () in
  for round = 1 to 500 do
    let tbl = Session.table ~max_sessions:2 ~jobs:1 () in
    let register () =
      match Session.register tbl ~spec with
      | Ok s -> s
      | Error e -> Alcotest.failf "round %d: %s" round e
    in
    let a = register () in
    let b = register () in
    Session.checkin tbl a;
    Session.checkin tbl b;
    (match Session.checkout tbl a.Session.id with
     | Some a -> Session.checkin tbl a
     | None -> Alcotest.failf "round %d: A missing" round);
    ignore (register ());
    let present (s : Session.t) =
      match Session.checkout tbl s.Session.id with
      | Some s -> Session.checkin tbl s; true
      | None -> false
    in
    if present b || not (present a) then
      Alcotest.failf "round %d: evicted A instead of B" round
  done

(* ------------------------------------------------------------------ *)
(* An in-process daemon on a temporary Unix socket *)

let fresh_socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hem-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

let connect_retry path =
  let rec go n =
    match Client.connect (`Unix path) with
    | Ok c -> c
    | Error e ->
      if n = 0 then Alcotest.failf "daemon did not come up: %s" e
      else begin
        Thread.delay 0.05;
        go (n - 1)
      end
  in
  go 100

let with_server ?(jobs = 2) ?max_sessions f =
  let path = fresh_socket_path () in
  let cfg = Serve.Server.config ~unix_path:path ~jobs ?max_sessions () in
  let th = Thread.create Serve.Server.run cfg in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect (`Unix path) with
      | Ok c ->
        ignore (Client.shutdown c);
        Client.close c
      | Error _ -> ());
      Thread.join th;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let reply_exn what = function
  | Error e -> Alcotest.failf "%s: %s" what e
  | Ok (r : Protocol.reply) -> r

(* strip the per-run fields (session id, process snapshot) so two runs
   of the same logical sequence can be compared byte-for-byte *)
let stable_body (r : Protocol.reply) =
  match r.Protocol.body with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter (fun (k, _) -> k <> "session" && k <> "process") fields))
  | j -> Json.to_string j

(* ------------------------------------------------------------------ *)
(* Two sessions, different specs, interleaved edits: replies and
   per-session counters byte-identical to a serial replay *)

let edit_sequence_a =
  [
    [ Space.Task_priority { task = "t3"; priority = 4 } ];
    [ Space.Source_period { source = "s3"; period = 900 } ];
    [ Space.Task_priority { task = "t3"; priority = 3 } ];
    [ Space.Source_period { source = "s3"; period = 1000 } ];
  ]

let edit_sequence_b =
  [
    [ Space.Task_priority { task = "radio_proc"; priority = 5 } ];
    [ Space.Source_period { source = "nav"; period = 120 } ];
    [ Space.Task_priority { task = "radio_proc"; priority = 3 } ];
    [ Space.Source_period { source = "nav"; period = 100 } ];
  ]

type session_run = {
  edit_bodies : string list;
  counters : string;  (** the session's metrics counters, rendered *)
}

let run_session c ~spec_text ~edits ~interleave_with =
  let load = reply_exn "load" (Client.load c ~spec:spec_text) in
  Alcotest.(check int) "load ok" 0 (Client.exit_code load);
  let session =
    match Client.session_id load with
    | Some id -> id
    | None -> Alcotest.fail "load reply has no session id"
  in
  let edit_bodies =
    List.mapi
      (fun i es ->
        interleave_with i;
        let r = reply_exn "edit" (Client.edit c ~session es) in
        Alcotest.(check int) "edit ok" 0 (Client.exit_code r);
        stable_body r)
      edits
  in
  let m = reply_exn "metrics" (Client.metrics c ~session) in
  let counters =
    match Json.member "counters" m.Protocol.body with
    | Some j -> Json.to_string j
    | None -> Alcotest.fail "metrics reply has no counters"
  in
  Alcotest.(check (option int)) "metrics count every applied edit"
    (Some (List.fold_left (fun n es -> n + List.length es) 0 edits))
    (match Json.member "edits" m.Protocol.body with
     | Some (Json.Int n) -> Some n
     | _ -> None);
  ignore (reply_exn "close" (Client.close_session c ~session));
  { edit_bodies; counters }

let interleaved_sessions_scope_exact () =
  let spec_a = read_file "paper_gateway.scm" in
  let spec_b = read_file "avionics.scm" in
  with_server (fun path ->
    (* interleaved: session B advances one edit between every two edits
       of session A (driven from one thread, so the interleaving is
       deterministic; the sessions still share the server, the worker
       pool and the metrics registry) *)
    let cb = connect_retry path in
    let load_b = reply_exn "load b" (Client.load cb ~spec:spec_b) in
    let session_b =
      match Client.session_id load_b with
      | Some id -> id
      | None -> Alcotest.fail "load b: no session id"
    in
    let b_bodies = ref [] in
    let b_edits = Array.of_list edit_sequence_b in
    let ca = connect_retry path in
    let a =
      run_session ca ~spec_text:spec_a ~edits:edit_sequence_a
        ~interleave_with:(fun i ->
          let r = reply_exn "edit b" (Client.edit cb ~session:session_b b_edits.(i)) in
          b_bodies := stable_body r :: !b_bodies)
    in
    let mb = reply_exn "metrics b" (Client.metrics cb ~session:session_b) in
    let b_counters =
      match Json.member "counters" mb.Protocol.body with
      | Some j -> Json.to_string j
      | None -> Alcotest.fail "metrics b: no counters"
    in
    ignore (reply_exn "close b" (Client.close_session cb ~session:session_b));
    Client.close ca;
    Client.close cb;
    (* serial replay on the same daemon: first all of A, then all of B *)
    let c = connect_retry path in
    let a' =
      run_session c ~spec_text:spec_a ~edits:edit_sequence_a
        ~interleave_with:(fun _ -> ())
    in
    let b' =
      run_session c ~spec_text:spec_b ~edits:edit_sequence_b
        ~interleave_with:(fun _ -> ())
    in
    Client.close c;
    List.iteri
      (fun i (x, y) ->
        Alcotest.(check string)
          (Printf.sprintf "session A edit %d byte-identical to serial replay" i)
          y x)
      (List.combine a.edit_bodies a'.edit_bodies);
    List.iteri
      (fun i (x, y) ->
        Alcotest.(check string)
          (Printf.sprintf "session B edit %d byte-identical to serial replay" i)
          y x)
      (List.combine (List.rev !b_bodies) b'.edit_bodies);
    (* scope-exactness: each session's counters record its own work
       only, so the interleaving cannot leak into them *)
    Alcotest.(check string) "session A counters scope-exact" a'.counters
      a.counters;
    Alcotest.(check string) "session B counters scope-exact" b'.counters
      b_counters)

(* ------------------------------------------------------------------ *)
(* Protocol fuzz: malformed frames, oversized payloads, disconnects *)

(* wait out the daemon's startup: until the socket file exists and
   accepts connections, keep retrying *)
let raw_connect path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Thread.delay 0.05;
      go (n - 1)
  in
  go 100

let read_reply fd =
  let reader = Protocol.reader fd in
  match Protocol.read_frame reader with
  | Error e -> Error e
  | Ok payload -> begin
    match Json.of_string payload with
    | Error e -> Alcotest.failf "reply is not JSON: %s" e
    | Ok j -> begin
      match Protocol.reply_of_json j with
      | Error e -> Alcotest.failf "reply does not decode: %s" e
      | Ok r -> Ok r
    end
  end

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let expect_fault_then_close what fd =
  (match read_reply fd with
  | Ok r ->
    Alcotest.(check int) (what ^ ": fault status") 1
      (Protocol.status_code r.Protocol.status)
  | Error e ->
    Alcotest.failf "%s: no reply before close: %s" what
      (Protocol.frame_error_to_string e));
  (* the stream position is unrecoverable: the server must drop us *)
  let reader = Protocol.reader fd in
  (match Protocol.read_frame ~max_frame:1024 reader with
  | Error Protocol.Closed -> ()
  | Error e ->
    Alcotest.failf "%s: expected close, got %s" what
      (Protocol.frame_error_to_string e)
  | Ok _ -> Alcotest.failf "%s: server kept talking after a framing fault" what);
  Unix.close fd

let protocol_fuzz () =
  with_server (fun path ->
    (* 1. malformed length header *)
    let fd = raw_connect path in
    write_all fd "notalength\n";
    expect_fault_then_close "malformed header" fd;
    (* 2. oversized payload announcement *)
    let fd = raw_connect path in
    write_all fd "99999999\n";
    expect_fault_then_close "oversized" fd;
    (* 3. missing trailer newline *)
    let fd = raw_connect path in
    write_all fd "2\n{}X";
    expect_fault_then_close "missing trailer" fd;
    (* 4. abrupt disconnect mid-frame must not kill the daemon *)
    let fd = raw_connect path in
    write_all fd "120\n{\"id\":1,";
    Unix.close fd;
    (* 5. a frame that is valid but not JSON: fault reply, connection
       survives (the stream position is still good) *)
    let c = connect_retry path in
    let fd = raw_connect path in
    Protocol.write_frame fd "{nope";
    (match read_reply fd with
    | Ok r ->
      Alcotest.(check int) "bad JSON: fault status" 1
        (Protocol.status_code r.Protocol.status)
    | Error e ->
      Alcotest.failf "bad JSON: %s" (Protocol.frame_error_to_string e));
    Protocol.write_frame fd "{\"id\":7,\"op\":\"ping\"}";
    (match read_reply fd with
    | Ok r ->
      Alcotest.(check int) "same connection still serves" 0
        (Protocol.status_code r.Protocol.status);
      Alcotest.(check int) "reply id echoes" 7 r.Protocol.rep_id
    | Error e ->
      Alcotest.failf "ping after bad JSON: %s"
        (Protocol.frame_error_to_string e));
    Unix.close fd;
    (* 6. unknown session is a fault, not a crash *)
    let r = reply_exn "edit" (Client.edit c ~session:"s-999"
      [ Space.Task_priority { task = "t3"; priority = 4 } ]) in
    Alcotest.(check int) "unknown session is a fault" 1 (Client.exit_code r);
    (* and the daemon still answers *)
    let r = reply_exn "ping" (Client.ping c) in
    Alcotest.(check int) "daemon alive after fuzz" 0 (Client.exit_code r);
    Client.close c)

(* ------------------------------------------------------------------ *)
(* LRU eviction takes the victim's state with it: reloading the same
   spec after an eviction must reply byte-identically to the first
   load's analyse (modulo session id / process snapshot) *)

let int_field what body key =
  match Json.member key body with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "%s: no %s field" what key

(* drop the fields that legitimately differ between the two rounds *)
let evict_stable (r : Protocol.reply) =
  match r.Protocol.body with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter
            (fun (k, _) -> k <> "session" && k <> "process")
            fields))
  | j -> Json.to_string j

let eviction_then_reload () =
  let spec_text = read_file "paper_gateway.scm" in
  with_server ~max_sessions:1 (fun path ->
    let c = connect_retry path in
    let session_of what r =
      match Client.session_id r with
      | Some id -> id
      | None -> Alcotest.failf "%s: no session id" what
    in
    let load1 = reply_exn "load 1" (Client.load c ~spec:spec_text) in
    let s1 = session_of "load 1" load1 in
    let a1 = reply_exn "analyse 1" (Client.analyse c ~session:s1) in
    Alcotest.(check int) "analyse 1 ok" 0 (Client.exit_code a1);
    (* re-analyse: a read-back of the session's warm fixed point *)
    let a1' = reply_exn "analyse 1 again" (Client.analyse c ~session:s1) in
    Alcotest.(check string) "read-back is byte-identical"
      (evict_stable a1) (evict_stable a1');
    (* the table holds one session: loading again evicts s1 *)
    let load2 = reply_exn "load 2" (Client.load c ~spec:spec_text) in
    let s2 = session_of "load 2" load2 in
    Alcotest.(check bool) "fresh session id" true (not (String.equal s1 s2));
    let m = reply_exn "metrics" (Client.metrics c ~session:s2) in
    Alcotest.(check int) "one eviction" 1
      (int_field "metrics" m.Protocol.body "evictions");
    Alcotest.(check int) "one live session" 1
      (int_field "metrics" m.Protocol.body "sessions");
    (* the evicted id is gone, and faults instead of crashing *)
    let r =
      reply_exn "edit evicted"
        (Client.edit c ~session:s1
           [ Space.Task_priority { task = "t3"; priority = 4 } ])
    in
    Alcotest.(check int) "evicted session faults" 1 (Client.exit_code r);
    (* the reloaded session's analyse is byte-identical to the first
       round *)
    let a2 = reply_exn "analyse 2" (Client.analyse c ~session:s2) in
    Alcotest.(check string) "evict-then-reload analyse byte-identical"
      (evict_stable a1) (evict_stable a2);
    ignore (reply_exn "close 2" (Client.close_session c ~session:s2));
    Client.close c)

(* ------------------------------------------------------------------ *)
(* End-to-end: load / edit / analyse on the daemon matches offline *)

(* the daemon's rendering of an offline result's outcomes *)
let offline_outcomes (r : Engine.result) =
  let rendered (o : Engine.element_outcome) =
    match o.Engine.outcome with
    | Scheduling.Busy_window.Bounded iv ->
      Json.to_string
        (Json.Obj
           [
             "element", Json.Str o.Engine.element;
             "resource", Json.Str o.Engine.resource;
             "outcome", Json.Str "bounded";
             "lo", Json.Int (Timebase.Interval.lo iv);
             "hi", Json.Int (Timebase.Interval.hi iv);
           ])
    | Scheduling.Busy_window.Unbounded reason ->
      Json.to_string
        (Json.Obj
           [
             "element", Json.Str o.Engine.element;
             "resource", Json.Str o.Engine.resource;
             "outcome", Json.Str "unbounded";
             "reason", Json.Str reason;
           ])
  in
  "[" ^ String.concat "," (List.map rendered r.Engine.outcomes) ^ "]"

let daemon_matches_offline () =
  let spec_text = read_file "paper_gateway.scm" in
  let description =
    match Cpa_system.Spec_file.parse spec_text with
    | Ok d -> d
    | Error e -> Alcotest.failf "spec parse: %s" e
  in
  let spec = Cpa_system.Spec_file.to_spec description in
  let offline = ok_exn "offline" (Engine.analyse spec) in
  with_server (fun path ->
    let c = connect_retry path in
    let load = reply_exn "load" (Client.load c ~spec:spec_text) in
    let session =
      match Client.session_id load with
      | Some id -> id
      | None -> Alcotest.fail "no session id"
    in
    let expected = offline_outcomes offline in
    (match Json.member "outcomes" load.Protocol.body with
    | Some j ->
      Alcotest.(check string) "daemon outcomes = offline engine" expected
        (Json.to_string j)
    | None -> Alcotest.fail "load reply has no outcomes");
    let a = reply_exn "analyse" (Client.analyse c ~session) in
    (match Json.member "outcomes" a.Protocol.body with
    | Some j ->
      Alcotest.(check string) "analyse outcomes = offline engine" expected
        (Json.to_string j)
    | None -> Alcotest.fail "analyse reply has no outcomes");
    ignore (reply_exn "close" (Client.close_session c ~session));
    Client.close c)

(* A degraded edit poisons the warm context; the next analyse on the
   paper system, with no budget, is the rebuild branch and must match
   the offline engine on the edited spec *)
let degraded_edit_then_analyse () =
  let spec_text = read_file "paper_gateway.scm" in
  let spec =
    match Cpa_system.Spec_file.parse spec_text with
    | Ok d -> Cpa_system.Spec_file.to_spec d
    | Error e -> Alcotest.failf "spec parse: %s" e
  in
  let edit = Space.Cet_scale { task = "t3"; percent = 150 } in
  let edited = Space.apply spec edit in
  let expected = offline_outcomes (ok_exn "offline" (Engine.analyse edited)) in
  with_server (fun path ->
    let c = connect_retry path in
    let load = reply_exn "load" (Client.load c ~spec:spec_text) in
    let session =
      match Client.session_id load with
      | Some id -> id
      | None -> Alcotest.fail "no session id"
    in
    Alcotest.(check bool) "the edit moves the bounds" true
      (Json.member "outcomes" load.Protocol.body
       |> Option.map Json.to_string <> Some expected);
    let e = reply_exn "edit" (Client.edit ~budget:1 c ~session [ edit ]) in
    Alcotest.(check int) "budget-tripped edit degrades" 3 (Client.exit_code e);
    (* a tripped run widens every bound it could not finish to
       unbounded, never to an optimistic value *)
    Alcotest.(check bool) "degraded edit widens bounds" true
      (match Json.member "changed" e.Protocol.body with
       | Some (Json.Arr (_ :: _ as changed)) ->
         List.for_all
           (fun o -> Json.member "outcome" o = Some (Json.Str "unbounded"))
           changed
       | _ -> false);
    let a = reply_exn "analyse" (Client.analyse c ~session) in
    Alcotest.(check int) "analyse after a degraded edit converges" 0
      (Client.exit_code a);
    (match Json.member "outcomes" a.Protocol.body with
    | Some j ->
      Alcotest.(check string) "rebuilt outcomes = offline engine" expected
        (Json.to_string j)
    | None -> Alcotest.fail "analyse reply has no outcomes");
    ignore (reply_exn "close" (Client.close_session c ~session));
    Client.close c)

(* One table of engine-mode names: Engine.mode_of_name inverts
   mode_name and takes the hyphenated spellings; the daemon's load op
   parses its "mode" with it, and a non-finite deadline goes over the
   wire as null (no deadline) *)
let engine_mode_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Engine.mode_name m ^ " round-trips") true
        (Engine.mode_of_name (Engine.mode_name m) = Some m))
    [ Engine.Hierarchical; Engine.Flat_stream; Engine.Flat_sem ];
  Alcotest.(check bool) "flat-stream" true
    (Engine.mode_of_name "flat-stream" = Some Engine.Flat_stream);
  Alcotest.(check bool) "flat-sem" true
    (Engine.mode_of_name "flat-sem" = Some Engine.Flat_sem);
  Alcotest.(check bool) "unknown" true (Engine.mode_of_name "hem" = None);
  let spec = read_file "paper_gateway.scm" in
  with_server (fun path ->
    let c = connect_retry path in
    let load = reply_exn "load" (Client.load ~mode:"flat-sem" c ~spec) in
    Alcotest.(check int) "flat-sem load ok" 0 (Client.exit_code load);
    Alcotest.(check (option string)) "session runs flat_sem" (Some "flat_sem")
      (Option.bind (Json.member "mode" load.Protocol.body) Json.to_str);
    let load =
      reply_exn "load" (Client.load ~deadline_ms:Float.infinity c ~spec)
    in
    Alcotest.(check int) "infinite deadline load ok" 0 (Client.exit_code load);
    let bad = reply_exn "load" (Client.load ~mode:"bogus" c ~spec) in
    Alcotest.(check int) "unknown mode is a fault" 1 (Client.exit_code bad);
    Client.close c)

let () =
  Alcotest.run "serve"
    [
      ( "wire codec",
        List.map QCheck_alcotest.to_alcotest
          [ prop_wire_roundtrip; prop_wire_canonical ]
        @ [ Alcotest.test_case "rejects malformed input" `Quick wire_rejects ] );
      ( "warm sessions",
        [ Alcotest.test_case "warm updates = cold analysis" `Quick
            warm_matches_cold ] );
      ( "session table",
        [
          Alcotest.test_case "register returns the session checked out"
            `Quick register_checks_out;
          Alcotest.test_case "eviction follows checkout order" `Quick
            eviction_follows_checkout_order;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "outcomes match the offline engine" `Quick
            daemon_matches_offline;
          Alcotest.test_case "interleaved sessions are scope-exact" `Quick
            interleaved_sessions_scope_exact;
          Alcotest.test_case "protocol fuzz" `Quick protocol_fuzz;
          Alcotest.test_case "eviction then reload is byte-identical" `Quick
            eviction_then_reload;
          Alcotest.test_case "degraded edit, then analyse rebuilds" `Quick
            degraded_edit_then_analyse;
          Alcotest.test_case "engine mode names" `Quick engine_mode_names;
        ] );
    ]
