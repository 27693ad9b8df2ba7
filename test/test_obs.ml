(* Observability layer: span well-formedness, Chrome-trace export,
   disabled-path silence, engine telemetry consistency, and per-scope
   metric attribution (including the interleaved-analyses regression the
   scoped registry was built for). *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Curve = Event_model.Curve
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Metrics = Obs.Metrics

(* Deterministic trace clock: strictly increasing integer microseconds,
   so serialized timestamps are stable across runs. *)
let tick = ref 0.0

let () =
  Obs.Trace.set_clock (fun () ->
    tick := !tick +. 1.0;
    !tick)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

let with_memory_sink ?level f =
  let sink, events = Obs.Sink.memory () in
  Obs.Sink.install ?level sink;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
    let r = f () in
    r, events ())

(* A minimal JSON reader — the toolchain has no JSON library and the
   exporter must be checked against an independent parser. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then raise (Bad "unexpected end");
      let c = s.[!pos] in
      incr pos;
      c
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      let g = next () in
      if g <> c then raise (Bad (Printf.sprintf "expected %c, got %c" c g))
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' -> begin
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            let hex = String.init 4 (fun _ -> next ()) in
            let code = int_of_string ("0x" ^ hex) in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_string b (Printf.sprintf "\\u%s" hex)
          | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
          go ()
        end
        | c when Char.code c < 0x20 ->
          (* JSON forbids raw control characters inside strings *)
          raise (Bad (Printf.sprintf "raw control character %#x" (Char.code c)))
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise (Bad "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((key, v) :: acc)
            | '}' -> Obj (List.rev ((key, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object separator %c" c))
          in
          members []
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; List [])
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> List (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array separator %c" c))
          in
          elements []
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> raise (Bad "empty input")
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let str_exn j =
    match j with
    | Str s -> s
    | _ -> raise (Bad "expected string")
end

(* --- span well-formedness ------------------------------------------- *)

let span_stack_check events =
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e with
      | Obs.Event.Span_begin { name; _ } -> stack := name :: !stack
      | Obs.Event.Span_end { name; _ } -> begin
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "span end matches innermost begin" top name;
          stack := rest
        | [] -> Alcotest.failf "span end %s without begin" name
      end
      | _ -> ())
    events;
  Alcotest.(check (list string)) "all spans closed" [] !stack

let test_span_nesting () =
  let result, events =
    with_memory_sink (fun () ->
      ok (Engine.analyse ~mode:Engine.Hierarchical (Scenarios.Paper_system.spec ())))
  in
  Alcotest.(check bool) "emitted events" true (events <> []);
  span_stack_check events;
  let count name =
    List.length
      (List.filter
         (function
           | Obs.Event.Span_begin { name = n; _ } -> String.equal n name
           | _ -> false)
         events)
  in
  Alcotest.(check int) "one top-level analyse span" 1 (count "engine.analyse");
  Alcotest.(check int)
    "one iteration span per global iteration" result.Engine.iterations
    (count "engine.iteration");
  Alcotest.(check bool) "busy-window spans present" true
    (count "busy_window" > 0);
  Alcotest.(check bool) "pack spans present" true (count "hem.pack" > 0)

let test_iteration_spans_all_modes () =
  List.iter
    (fun mode ->
      let result, events =
        with_memory_sink (fun () ->
          ok (Engine.analyse ~mode (Scenarios.Paper_system.spec ())))
      in
      let spans =
        List.filter
          (function
            | Obs.Event.Span_begin { name = "engine.iteration"; _ } -> true
            | _ -> false)
          events
      in
      let label what = Engine.mode_name mode ^ ": " ^ what in
      Alcotest.(check int)
        (label "iteration spans = result.iterations")
        result.Engine.iterations (List.length spans);
      Alcotest.(check int)
        (label "iteration_stats rows = result.iterations")
        result.Engine.iterations
        (List.length result.Engine.iteration_stats);
      let last =
        List.nth result.Engine.iteration_stats
          (List.length result.Engine.iteration_stats - 1)
      in
      Alcotest.(check bool)
        (label "converged run ends at residual 0") true
        ((not result.Engine.converged)
        || (last.Engine.residual = 0 && last.Engine.changed = 0)))
    [ Engine.Hierarchical; Engine.Flat_stream; Engine.Flat_sem ]

(* --- disabled path --------------------------------------------------- *)

let test_disabled_path_silent () =
  Alcotest.(check bool) "no sink installed" false (Obs.Trace.enabled ());
  (* probes with no sink must not blow up and with_span must still run f *)
  Obs.Trace.span_begin "ghost";
  Obs.Trace.span_end "ghost";
  Obs.Trace.instant "ghost";
  Obs.Trace.counter "ghost" 42;
  let v = Obs.Trace.with_span "ghost" (fun () -> 17) in
  Alcotest.(check int) "with_span transparent" 17 v;
  (* an analysis without a sink leaves a later-installed sink empty *)
  ignore (ok (Engine.analyse (Scenarios.Paper_system.spec ())));
  let (), events = with_memory_sink (fun () -> ()) in
  Alcotest.(check int) "nothing buffered from the unsinked run" 0
    (List.length events)

(* Minor-heap words allocated per call of [f] over [iters] calls, after
   one warmup call. *)
let minor_words_per_call ?(iters = 100_000) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let span_body () = 17

(* trace.mli's contract: with no sink installed every probe is a no-op
   that allocates nothing, so instrumented hot paths cost nothing. *)
let test_disabled_path_allocation_free () =
  Alcotest.(check bool) "no sink installed" false (Obs.Trace.enabled ());
  List.iter
    (fun (probe, f) ->
      Alcotest.(check (float 0.0)) (probe ^ " words per call") 0.0
        (minor_words_per_call f))
    [
      "span_begin", (fun () -> Obs.Trace.span_begin "ghost");
      "span_end", (fun () -> Obs.Trace.span_end "ghost");
      "with_span", (fun () -> ignore (Obs.Trace.with_span "ghost" span_body));
      "counter", (fun () -> Obs.Trace.counter "ghost" 42);
      "instant", (fun () -> Obs.Trace.instant "ghost");
    ]

let test_spans_level_drops_counters () =
  let _, events =
    with_memory_sink ~level:Obs.Sink.Spans (fun () ->
      ok (Engine.analyse (Scenarios.Paper_system.spec ())))
  in
  List.iter
    (function
      | Obs.Event.Counter _ | Obs.Event.Instant _ ->
        Alcotest.fail "counter/instant leaked at Spans level"
      | _ -> ())
    events

(* --- monotonic clock -------------------------------------------------- *)

let test_clock_monotonic () =
  let backwards = [ 100.0; 50.0; 120.0; 80.0 ] in
  let remaining = ref backwards in
  Obs.Trace.set_clock (fun () ->
    match !remaining with
    | [] -> 200.0
    | t :: rest ->
      remaining := rest;
      t);
  let t1 = Obs.Trace.now_us () in
  let t2 = Obs.Trace.now_us () in
  let t3 = Obs.Trace.now_us () in
  let t4 = Obs.Trace.now_us () in
  Obs.Trace.set_clock (fun () ->
    tick := !tick +. 1.0;
    !tick);
  Alcotest.(check bool) "never decreases" true
    (t2 >= t1 && t3 >= t2 && t4 >= t3);
  Alcotest.(check (float 0.0)) "clamped to previous" t1 t2

(* --- Chrome trace export ---------------------------------------------- *)

let run_traced_analysis path =
  Obs.Sink.install ~level:Obs.Sink.Full (Obs.Chrome_trace.file path);
  Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
    ok (Engine.analyse ~mode:Engine.Hierarchical (Scenarios.Paper_system.spec ())))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_chrome_trace_json () =
  let path = Filename.temp_file "hem_trace" ".json" in
  let result = run_traced_analysis path in
  let json = Json.parse (read_file path) in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Sys.remove path;
  Alcotest.(check bool) "has events" true (events <> []);
  let phase e = Json.str_exn (Option.get (Json.member "ph" e)) in
  let with_ph p = List.filter (fun e -> String.equal (phase e) p) events in
  Alcotest.(check int) "every B has a matching E"
    (List.length (with_ph "B"))
    (List.length (with_ph "E"));
  List.iter
    (fun e ->
      (match Json.member "name" e with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "event without name");
      match Json.member "ts" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event without numeric ts")
    events;
  (* timestamps are emission-ordered and the clock is clamped *)
  let ts e = match Json.member "ts" e with
    | Some (Json.Num f) -> f
    | _ -> 0.0
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> ts a <= ts b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps non-decreasing" true (sorted events);
  let iteration_begins =
    List.filter
      (fun e ->
        String.equal (phase e) "B"
        && (match Json.member "name" e with
           | Some (Json.Str "engine.iteration") -> true
           | _ -> false))
      events
  in
  Alcotest.(check int) "iteration spans survive export"
    result.Engine.iterations
    (List.length iteration_begins);
  (* every iteration end carries the residual attribute *)
  List.iter
    (fun e ->
      if
        String.equal (phase e) "E"
        && Json.member "name" e = Some (Json.Str "engine.iteration")
      then
        match Json.member "args" e with
        | Some args -> begin
          match Json.member "residual" args with
          | Some (Json.Num _) -> ()
          | _ -> Alcotest.fail "iteration end without residual"
        end
        | None -> Alcotest.fail "iteration end without args")
    events

let test_chrome_trace_jsonl () =
  let path = Filename.temp_file "hem_trace" ".jsonl" in
  ignore (run_traced_analysis path);
  let contents = read_file path in
  Sys.remove path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' contents)
  in
  Alcotest.(check bool) "has lines" true (lines <> []);
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "line is not a JSON object"
      | exception Json.Bad e -> Alcotest.failf "unparseable line (%s): %s" e line)
    lines

let test_string_escaping () =
  let evil = "a\"b\\c\nd\te\r\x01f" in
  let ev =
    Obs.Event.Instant { name = evil; ts = 1.0; attrs = [ "k", Obs.Event.Str evil ] }
  in
  let json = Json.parse (Obs.Chrome_trace.event_json ev) in
  match Json.member "name" json with
  | Some (Json.Str s) ->
    (* control chars round-trip through \uXXXX except those below 0x80,
       which our mini-parser decodes back to raw chars *)
    Alcotest.(check string) "name round-trips" evil s
  | _ -> Alcotest.fail "name missing"

(* --- metric scoping ---------------------------------------------------- *)

let test_scoped_counters () =
  let c = Metrics.counter "test.obs.scoped" in
  let s1 = Metrics.scope "s1" in
  let s2 = Metrics.scope "s2" in
  Metrics.in_scope s1 (fun () -> Metrics.add c 3);
  Metrics.in_scope s2 (fun () ->
    Metrics.add c 5;
    Metrics.in_scope s1 (fun () -> Metrics.add c 7));
  Alcotest.(check int) "s1 charged inside and nested" 10 (Metrics.read s1 c);
  Alcotest.(check int) "s2 charged its whole extent" 12 (Metrics.read s2 c)

let test_attachment_attribution () =
  let c = Metrics.counter "test.obs.attached" in
  let owner = Metrics.scope "owner" in
  let other = Metrics.scope "other" in
  let att = Metrics.in_scope owner (fun () -> Metrics.attach ()) in
  (* work executed inside [other] but attributed to the creator *)
  Metrics.in_scope other (fun () -> Metrics.add_attached att c 9);
  Alcotest.(check int) "creator charged" 9 (Metrics.read owner c);
  Alcotest.(check int) "executor not charged" 0 (Metrics.read other c);
  (* empty attachment falls back to the ambient stack *)
  Metrics.in_scope other (fun () -> Metrics.add_attached [] c 4);
  Alcotest.(check int) "ambient fallback" 4 (Metrics.read other c)

(* The regression the scoped registry exists for: evaluating streams that
   belong to one analysis while another analysis runs must not inflate
   the second analysis's effort stats.  Before scoping, [Engine.stats]
   was a diff over process-global counters and any interleaved work was
   misattributed. *)
let test_interleaved_analyses_attribution () =
  let a =
    ok (Engine.analyse ~mode:Engine.Hierarchical (Scenarios.Paper_system.spec ()))
  in
  let a_stream =
    a.Engine.resolve (Spec.From_signal { frame = "F1"; signal = "sig1" })
  in
  let injected = ref 0 in
  let spec_b ~inject =
    let delta_min n =
      if inject then begin
        incr injected;
        (* deep, varying probes into A's hierarchy: closure work that
           belongs to analysis A *)
        ignore (Stream.delta_min a_stream (n + 40))
      end;
      Time.of_int ((n - 1) * 100)
    in
    let delta_plus n = Time.of_int ((n - 1) * 100) in
    let src = Stream.make ~name:"SB" ~delta_min ~delta_plus in
    Spec.make
      ~sources:[ "SB", src ]
      ~resources:[ { Spec.res_name = "CPUB"; scheduler = Spec.Spp; backend = Spec.Cpa } ]
      ~tasks:
        [
          Spec.task ~name:"TB" ~resource:"CPUB"
            ~cet:(Interval.make ~lo:5 ~hi:10) ~priority:1
            ~activation:(Spec.From_source "SB") ();
        ]
      ()
  in
  let control = ok (Engine.analyse ~mode:Engine.Hierarchical (spec_b ~inject:false)) in
  let poisoned = ok (Engine.analyse ~mode:Engine.Hierarchical (spec_b ~inject:true)) in
  Alcotest.(check bool) "injection actually ran" true (!injected > 0);
  let c r = r.Engine.stats.Engine.curve in
  Alcotest.(check int) "closure evals unaffected by interleaved work"
    (c control).Curve.closure_evals
    (c poisoned).Curve.closure_evals;
  Alcotest.(check int) "memo hits unaffected by interleaved work"
    (c control).Curve.memo_hits
    (c poisoned).Curve.memo_hits;
  Alcotest.(check (list (pair string int))) "same outcome bounds"
    (List.map
       (fun (o : Engine.element_outcome) ->
         ( o.element,
           match o.outcome with
           | Scheduling.Busy_window.Bounded i -> Interval.hi i
           | Scheduling.Busy_window.Unbounded _ -> -1 ))
       control.Engine.outcomes)
    (List.map
       (fun (o : Engine.element_outcome) ->
         ( o.element,
           match o.outcome with
           | Scheduling.Busy_window.Bounded i -> Interval.hi i
           | Scheduling.Busy_window.Unbounded _ -> -1 ))
       poisoned.Engine.outcomes)

(* --- histograms -------------------------------------------------------- *)

let test_hist_empty () =
  let h = Obs.Hist.make () in
  Alcotest.(check int) "count" 0 (Obs.Hist.count h);
  Alcotest.(check int) "sum" 0 (Obs.Hist.sum h);
  Alcotest.(check int) "min" 0 (Obs.Hist.min_value h);
  Alcotest.(check int) "max" 0 (Obs.Hist.max_value h);
  Alcotest.(check int) "p50" 0 (Obs.Hist.p50 h);
  Alcotest.(check int) "p99" 0 (Obs.Hist.p99 h);
  Alcotest.(check (list (triple int int int))) "no buckets" []
    (Obs.Hist.buckets h)

let test_hist_single_sample () =
  List.iter
    (fun v ->
      let h = Obs.Hist.make () in
      Obs.Hist.record h v;
      let label what = Printf.sprintf "v=%d: %s" v what in
      Alcotest.(check int) (label "count") 1 (Obs.Hist.count h);
      (* clamping to the recorded max makes single-sample hists exact at
         every percentile *)
      Alcotest.(check int) (label "p50") v (Obs.Hist.p50 h);
      Alcotest.(check int) (label "p99") v (Obs.Hist.p99 h);
      Alcotest.(check int) (label "p100") v (Obs.Hist.percentile h 100.0);
      Alcotest.(check int) (label "min") v (Obs.Hist.min_value h);
      Alcotest.(check int) (label "max") v (Obs.Hist.max_value h))
    [ 0; 1; 15; 16; 17; 1000; 123_456_789 ]

let test_hist_negative_clamps () =
  let h = Obs.Hist.make () in
  Obs.Hist.record h (-5);
  Alcotest.(check int) "count" 1 (Obs.Hist.count h);
  Alcotest.(check int) "clamped to 0" 0 (Obs.Hist.max_value h)

let test_hist_bucket_boundaries () =
  (* every sample must land in a bucket that contains it, exact below 16
     and within 12.5% above; probe octave edges and their neighbours *)
  let probes =
    List.concat_map
      (fun v -> [ v - 1; v; v + 1 ])
      [ 1; 2; 8; 16; 32; 128; 1024; 65536; 1 lsl 30 ]
  in
  List.iter
    (fun v ->
      if v >= 0 then begin
        let h = Obs.Hist.make () in
        Obs.Hist.record h v;
        match Obs.Hist.buckets h with
        | [ (lo, hi, c) ] ->
          let label what = Printf.sprintf "v=%d: %s" v what in
          Alcotest.(check int) (label "one sample") 1 c;
          Alcotest.(check bool) (label "lo <= v") true (lo <= v);
          Alcotest.(check bool) (label "v <= hi") true (v <= hi);
          if v < 16 then
            Alcotest.(check int) (label "exact below 16") lo hi
          else
            Alcotest.(check bool) (label "<= 12.5% wide") true
              (float_of_int (hi - lo) <= 0.125 *. float_of_int lo)
        | bs -> Alcotest.failf "v=%d: %d buckets" v (List.length bs)
      end)
    probes

let test_hist_percentile_order () =
  let h = Obs.Hist.make () in
  for i = 1 to 1000 do
    Obs.Hist.record h i
  done;
  let p50 = Obs.Hist.p50 h
  and p90 = Obs.Hist.p90 h
  and p99 = Obs.Hist.p99 h in
  Alcotest.(check bool) "p50 <= p90 <= p99 <= max" true
    (p50 <= p90 && p90 <= p99 && p99 <= Obs.Hist.max_value h);
  (* upper bound within bucket width of the true rank value *)
  Alcotest.(check bool) "p50 brackets 500" true
    (p50 >= 500 && float_of_int p50 <= 500.0 *. 1.125);
  Alcotest.(check bool) "p99 brackets 990" true
    (p99 >= 990 && float_of_int p99 <= 990.0 *. 1.125)

let hist_fingerprint h =
  ( Obs.Hist.count h,
    Obs.Hist.sum h,
    Obs.Hist.min_value h,
    Obs.Hist.max_value h,
    Obs.Hist.buckets h )

let test_hist_merge_associative () =
  let mk samples =
    let h = Obs.Hist.make () in
    List.iter (Obs.Hist.record h) samples;
    h
  in
  let a () = mk [ 3; 17; 1000 ]
  and b () = mk [ 0; 17; 123_456 ]
  and c () = mk [ 5; 5; 5; 9999 ] in
  let left = Obs.Hist.merge (Obs.Hist.merge (a ()) (b ())) (c ()) in
  let right = Obs.Hist.merge (a ()) (Obs.Hist.merge (b ()) (c ())) in
  let flat = mk [ 3; 17; 1000; 0; 17; 123_456; 5; 5; 5; 9999 ] in
  Alcotest.(check bool) "assoc" true
    (hist_fingerprint left = hist_fingerprint right);
  Alcotest.(check bool) "merge = recording everything" true
    (hist_fingerprint left = hist_fingerprint flat);
  Alcotest.(check bool) "commutes" true
    (hist_fingerprint (Obs.Hist.merge (a ()) (b ()))
    = hist_fingerprint (Obs.Hist.merge (b ()) (a ())));
  (* merge_into leaves the source untouched *)
  let src = a () in
  let dst = b () in
  let before = hist_fingerprint src in
  Obs.Hist.merge_into ~into:dst src;
  Alcotest.(check bool) "source unchanged" true
    (before = hist_fingerprint src)

(* --- Chrome-trace attribute escaping ----------------------------------- *)

let test_attr_escaping () =
  let evil = "k\"ey\\with\ncontrol\tchars\x02" in
  let ev =
    Obs.Event.Instant
      {
        name = "n";
        ts = 1.0;
        attrs =
          [
            evil, Obs.Event.Str "quote\" backslash\\ newline\n bell\x07";
            "plain", Obs.Event.Int 3;
          ];
      }
  in
  let json = Json.parse (Obs.Chrome_trace.event_json ev) in
  let args =
    match Json.member "args" json with
    | Some a -> a
    | None -> Alcotest.fail "no args object"
  in
  (match Json.member evil args with
  | Some (Json.Str s) ->
    Alcotest.(check string) "evil value round-trips"
      "quote\" backslash\\ newline\n bell\x07" s
  | _ -> Alcotest.fail "evil key did not round-trip");
  (match Json.member "plain" args with
  | Some (Json.Num f) -> Alcotest.(check (float 0.0)) "int attr" 3.0 f
  | _ -> Alcotest.fail "plain attr missing");
  (* every JSON writer of the repository goes through Obs.Json: one
     hostile string must come back intact from each of them *)
  let hostile = "q\"b\\n\nr\rt\tc\x01 \xc3\xa9" in
  let back what j path =
    let rec dig j = function
      | [] -> j
      | key :: rest -> (
        match Json.member key j with
        | Some j -> dig j rest
        | None -> Alcotest.failf "%s: no %S" what key)
    in
    match dig j path with
    | Json.Str s -> Alcotest.(check string) what hostile s
    | _ -> Alcotest.failf "%s: not a string" what
  in
  back "trace attribute"
    (Json.parse
       (Obs.Chrome_trace.event_json
          (Obs.Event.Instant
             { name = "n"; ts = 1.0; attrs = [ "k", Obs.Event.Str hostile ] })))
    [ "args"; "k" ];
  Metrics.add (Metrics.counter hostile) 1;
  (match
     Json.member hostile
       (Option.get
          (Json.member "counters"
             (Json.parse (Obs.Snapshot.to_json (Obs.Snapshot.capture ())))))
   with
  | Some (Json.Num 1.0) -> ()
  | _ -> Alcotest.fail "snapshot counter name did not round-trip");
  let report =
    {
      Explore.Driver.rows =
        [ { label = hostile; digest = "d"; summary = Error "e";
            cache_hit = false } ];
      jobs = 1;
      modes = [];
      cache = { lookups = 1; hits = 0; entries = 1 };
      wall_ms = 0.0;
      workers = [];
      interrupted = None;
    }
  in
  (match
     Json.member "variants"
       (Json.parse (Format.asprintf "%a" Explore.Render.json report))
   with
  | Some (Json.List [ row ]) -> back "sweep row label" row [ "label" ]
  | _ -> Alcotest.fail "sweep report has no single row");
  let reply = Serve.Protocol.(ok ~id:7 (Json.Obj [ "text", Json.Str hostile ])) in
  back "protocol reply body"
    (Json.parse (Obs.Json.to_string (Serve.Protocol.reply_to_json reply)))
    [ "body"; "text" ];
  (* JSON has no infinity or NaN: such attributes print as null *)
  let ev =
    Obs.Event.Instant
      {
        name = "n";
        ts = 1.0;
        attrs =
          [ "inf", Obs.Event.Float Float.infinity;
            "-inf", Obs.Event.Float Float.neg_infinity;
            "nan", Obs.Event.Float Float.nan ];
      }
  in
  match Json.member "args" (Json.parse (Obs.Chrome_trace.event_json ev)) with
  | Some args ->
    List.iter
      (fun key ->
        Alcotest.(check bool) (key ^ " attr is null") true
          (Json.member key args = Some Json.Null))
      [ "inf"; "-inf"; "nan" ]
  | None -> Alcotest.fail "no args object"

(* --- profiler ----------------------------------------------------------- *)

let span_b ?(attrs = []) name ts = Obs.Event.Span_begin { name; ts; attrs }
let span_e ?(attrs = []) name ts = Obs.Event.Span_end { name; ts; attrs }

let test_profile_tree () =
  (* root [0,100]: child x twice ([10,30], [40,50]), child y [60,90];
     y refines on its element attribute *)
  let events =
    [
      span_b "root" 0.0;
      span_b "x" 10.0;
      span_e "x" 30.0;
      span_b "x" 40.0;
      span_e "x" 50.0;
      span_b "y" 60.0 ~attrs:[ "element", Obs.Event.Str "T1" ];
      span_e "y" 90.0;
      span_e "root" 100.0;
    ]
  in
  let p = Obs.Profile.of_events events in
  Alcotest.(check (float 1e-6)) "total = root span" 100.0
    (Obs.Profile.total_us p);
  (match Obs.Profile.roots p with
  | [ root ] ->
    Alcotest.(check string) "root key" "root" root.Obs.Profile.key;
    Alcotest.(check int) "root calls" 1 root.Obs.Profile.calls;
    Alcotest.(check (float 1e-6)) "root self = 100-20-10-30" 40.0
      root.Obs.Profile.self_us;
    let child key =
      List.find
        (fun (n : Obs.Profile.node) -> String.equal n.key key)
        root.Obs.Profile.children
    in
    let x = child "x" in
    Alcotest.(check int) "x aggregates both calls" 2 x.Obs.Profile.calls;
    Alcotest.(check (float 1e-6)) "x total" 30.0 x.Obs.Profile.total_us;
    let y = child "y:T1" in
    Alcotest.(check (float 1e-6)) "y:T1 total" 30.0 y.Obs.Profile.total_us
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
  (* self times partition the traced total *)
  let self_sum =
    List.fold_left
      (fun acc (_, _, _, self) -> acc +. self)
      0.0
      (Obs.Profile.top ~n:100 p)
  in
  Alcotest.(check (float 1e-3)) "self times sum to total" 100.0 self_sum;
  let lines = String.split_on_char '\n' (String.trim (Obs.Profile.collapsed p)) in
  Alcotest.(check (list string)) "collapsed stacks, sorted"
    [ "root 40"; "root;x 30"; "root;y:T1 30" ]
    lines

let test_profile_unbalanced () =
  (* an end without a begin is dropped; an unterminated begin closes at
     the last seen timestamp *)
  let events =
    [
      span_e "orphan" 5.0;
      span_b "root" 10.0;
      span_b "child" 20.0;
      span_e "child" 30.0;
      span_b "dangling" 35.0;
    ]
  in
  let p = Obs.Profile.of_events events in
  Alcotest.(check (float 1e-6)) "root closed at last ts" 25.0
    (Obs.Profile.total_us p);
  match Obs.Profile.roots p with
  | [ root ] ->
    Alcotest.(check string) "root survives" "root" root.Obs.Profile.key
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

(* --- snapshot export ---------------------------------------------------- *)

let test_snapshot_json () =
  let h = Obs.Hist.hist "test.obs.snapshot_ns" in
  Obs.Hist.clear h;
  List.iter (Obs.Hist.record h) [ 10; 100; 1000 ];
  let c = Metrics.counter "test.obs.snapshot_counter" in
  Metrics.add c 7;
  let json_text = Obs.Snapshot.to_json (Obs.Snapshot.capture ()) in
  let json = Json.parse (String.trim json_text) in
  let section name =
    match Json.member name json with
    | Some o -> o
    | None -> Alcotest.failf "missing %s section" name
  in
  (match Json.member "test.obs.snapshot_counter" (section "counters") with
  | Some (Json.Num f) ->
    Alcotest.(check bool) "counter total present" true (f >= 7.0)
  | _ -> Alcotest.fail "counter missing from snapshot");
  (match Json.member "test.obs.snapshot_ns" (section "histograms") with
  | Some hist_obj ->
    let num key =
      match Json.member key hist_obj with
      | Some (Json.Num f) -> f
      | _ -> Alcotest.failf "histogram field %s missing" key
    in
    Alcotest.(check (float 0.0)) "count" 3.0 (num "count");
    Alcotest.(check (float 0.0)) "min" 10.0 (num "min");
    Alcotest.(check (float 0.0)) "max" 1000.0 (num "max");
    Alcotest.(check bool) "p50 within bucket width of 100" true
      (num "p50" >= 100.0 && num "p50" <= 112.5);
    (match Json.member "buckets" hist_obj with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "buckets missing")
  | None -> Alcotest.fail "registered histogram missing from snapshot");
  (* deterministic: capturing the same state twice gives identical text *)
  Alcotest.(check string) "stable serialisation" json_text
    (Obs.Snapshot.to_json (Obs.Snapshot.capture ()));
  Obs.Hist.clear h

let test_snapshot_prometheus () =
  let h = Obs.Hist.hist "test.obs.snapshot_ns" in
  Obs.Hist.clear h;
  Obs.Hist.record h 42;
  let text = Obs.Snapshot.to_prometheus (Obs.Snapshot.capture ()) in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TYPE lines present" true (contains "# TYPE ");
  (* dots sanitised to the Prometheus alphabet *)
  Alcotest.(check bool) "sanitised histogram name" true
    (contains "test_obs_snapshot_ns");
  Alcotest.(check bool) "quantile series" true (contains "quantile=\"0.5\"");
  Alcotest.(check bool) "no raw dotted names" true
    (not (contains "test.obs.snapshot_ns"));
  Obs.Hist.clear h

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "iteration spans, all modes" `Quick
            test_iteration_spans_all_modes;
          Alcotest.test_case "disabled path is silent" `Quick
            test_disabled_path_silent;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_allocation_free;
          Alcotest.test_case "spans level drops counters" `Quick
            test_spans_level_drops_counters;
          Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic;
        ] );
      ( "chrome_trace",
        [
          Alcotest.test_case "json export parses" `Quick test_chrome_trace_json;
          Alcotest.test_case "jsonl export parses" `Quick
            test_chrome_trace_jsonl;
          Alcotest.test_case "string escaping" `Quick test_string_escaping;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "scoped counters" `Quick test_scoped_counters;
          Alcotest.test_case "attachment attribution" `Quick
            test_attachment_attribution;
          Alcotest.test_case "interleaved analyses" `Quick
            test_interleaved_analyses_attribution;
        ] );
      ( "hist",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample exact" `Quick
            test_hist_single_sample;
          Alcotest.test_case "negative clamps to 0" `Quick
            test_hist_negative_clamps;
          Alcotest.test_case "bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "percentile ordering" `Quick
            test_hist_percentile_order;
          Alcotest.test_case "merge associative" `Quick
            test_hist_merge_associative;
        ] );
      ( "profile",
        [
          Alcotest.test_case "attr escaping" `Quick test_attr_escaping;
          Alcotest.test_case "cost tree" `Quick test_profile_tree;
          Alcotest.test_case "unbalanced stream" `Quick
            test_profile_unbalanced;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "json export" `Quick test_snapshot_json;
          Alcotest.test_case "prometheus export" `Quick
            test_snapshot_prometheus;
        ] );
    ]
