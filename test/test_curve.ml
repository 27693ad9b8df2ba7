(* Tests for the memoized curve engine and its pseudo-inversion searches,
   which implement the eta functions of the paper (eqs. 1-2). *)

module Time = Timebase.Time
module Curve = Event_model.Curve

let linear slope = Curve.make (fun n -> Time.of_int (n * slope))

let test_eval_memoizes () =
  let calls = ref 0 in
  let c =
    Curve.make (fun n ->
      incr calls;
      Time.of_int n)
  in
  ignore (Curve.eval c 5);
  ignore (Curve.eval c 5);
  ignore (Curve.eval c 5);
  Alcotest.(check int) "computed once" 1 !calls

let test_table_recurrence () =
  (* delta(n) = delta(n-1) + n from delta(1) = 0: a recurrence reading the
     table's own previous cell *)
  let c =
    Curve.table (fun ~n0 ~len ~dst ~pos ->
      for i = pos to pos + len - 1 do
        dst.(i) <- dst.(i - 1) + (n0 + i - pos)
      done)
  in
  Alcotest.(check bool) "table backend" true (Curve.backend c = `Table);
  Alcotest.(check int) "triangular" 14 (Time.to_int (Curve.eval c 5));
  Alcotest.(check int) "deep" ((100 * 101 / 2) - 1)
    (Time.to_int (Curve.eval c 100));
  Alcotest.(check int) "n <= 1" 0 (Time.to_int (Curve.eval c 1))

let test_constant () =
  let c = Curve.constant (Time.of_int 9) in
  Alcotest.(check int) "any index" 9 (Time.to_int (Curve.eval c 12345))

(* brute-force reference for count_lt: largest n >= 1 with curve n < limit,
   or 0 when no such n exists (the curve already meets the limit at 1) *)
let brute_count_lt c limit =
  let rec scan n best =
    if n > 4096 then best
    else if Time.(Curve.eval c n < limit) then scan (n + 1) n
    else best
  in
  scan 1 0

let test_count_lt_linear () =
  let c = linear 10 in
  (* curve n = 10n; count_lt limit = largest n with 10n < limit *)
  List.iter
    (fun limit ->
      Alcotest.(check int)
        (Printf.sprintf "limit %d" limit)
        (brute_count_lt c (Time.of_int limit))
        (Curve.count_lt c (Time.of_int limit)))
    [ 1; 5; 10; 11; 99; 100; 101; 1000; 12345 ]

let test_count_lt_requires_positive () =
  Alcotest.check_raises "limit 0" (Invalid_argument "Curve.count_lt: limit <= 0")
    (fun () -> ignore (Curve.count_lt (linear 1) Time.zero))

(* regression: count_lt used to assume eval c 1 = 0 and start its search
   at n = 2, silently answering 1 for curves that already meet the limit
   at n = 1; it now answers 0 there *)
let test_count_lt_nonzero_at_one () =
  let c = linear 10 in
  (* eval c 1 = 10 *)
  Alcotest.(check int) "limit below eval 1" 0
    (Curve.count_lt c (Time.of_int 5));
  Alcotest.(check int) "limit at eval 1" 0
    (Curve.count_lt c (Time.of_int 10));
  Alcotest.(check int) "limit just above eval 1" 1
    (Curve.count_lt c (Time.of_int 11));
  let offset = Curve.make (fun n -> Time.of_int (3 + n)) in
  (* eval offset 1 = 4 *)
  Alcotest.(check int) "offset curve, unreachable limit" 0
    (Curve.count_lt offset (Time.of_int 2));
  Alcotest.(check int) "offset curve, reachable limit" 2
    (Curve.count_lt offset (Time.of_int 6))

let test_count_lt_unbounded () =
  let bounded = Curve.constant (Time.of_int 3) in
  Alcotest.(check bool) "raises Unbounded" true
    (match Curve.count_lt bounded (Time.of_int 10) with
     | _ -> false
     | exception Curve.Unbounded _ -> true)

let test_first_gt () =
  let c = linear 10 in
  (* first n with curve (n + 2) > limit *)
  let brute limit =
    let rec scan n =
      if Time.(Curve.eval c (n + 2) > Time.of_int limit) then n else scan (n + 1)
    in
    scan 0
  in
  List.iter
    (fun limit ->
      Alcotest.(check int)
        (Printf.sprintf "limit %d" limit)
        (brute limit)
        (Curve.first_gt c ~offset:2 (Time.of_int limit)))
    [ 0; 1; 19; 20; 21; 200; 201; 999 ]

let test_first_gt_inf_curve () =
  let c = Curve.constant Time.Inf in
  Alcotest.(check int) "inf exceeds immediately" 0
    (Curve.first_gt c ~offset:2 (Time.of_int 1000))

(* ------------------------------------------------------------------ *)
(* compact periodic-tail backend *)

(* closure reference for a (prefix, period_events, period_time) curve *)
let closure_of_periodic ~prefix ~period_events ~period_time =
  let len = Array.length prefix in
  Curve.make (fun n ->
    if n <= 1 then Time.zero
    else begin
      let i = n - 2 in
      if i < len then Time.of_int prefix.(i)
      else begin
        let over = i - (len - 1) in
        let steps = (over + period_events - 1) / period_events in
        Time.of_int (prefix.(i - (steps * period_events)) + (steps * period_time))
      end
    end)

let test_periodic_eval_matches_closure () =
  List.iter
    (fun (prefix, pe, pt) ->
      let compact =
        Curve.periodic ~prefix ~period_events:pe ~period_time:pt
      in
      let reference =
        closure_of_periodic ~prefix ~period_events:pe ~period_time:pt
      in
      Alcotest.(check bool) "compact backend" true
        (Curve.backend compact = `Periodic);
      for n = 0 to 200 do
        Alcotest.(check int)
          (Printf.sprintf "eval %d" n)
          (Time.to_int (Curve.eval reference n))
          (Time.to_int (Curve.eval compact n))
      done)
    [
      [| 7 |], 1, 7;
      [| 5; 9; 30 |], 1, 25;
      [| 0; 0; 100 |], 3, 100;
      [| 2; 4; 6; 50 |], 2, 60;
      [| 10; 10; 10 |], 1, 0;
      [| 0; 10 |], 2, 100;
    ]

let test_periodic_searches_match_closure () =
  List.iter
    (fun (prefix, pe, pt) ->
      let compact = Curve.periodic ~prefix ~period_events:pe ~period_time:pt in
      let reference =
        closure_of_periodic ~prefix ~period_events:pe ~period_time:pt
      in
      List.iter
        (fun limit ->
          let run f c = match f c with v -> Ok v | exception Curve.Unbounded _ -> Error () in
          Alcotest.(check (result int unit))
            (Printf.sprintf "count_lt %d" limit)
            (run (fun c -> Curve.count_lt c (Time.of_int limit)) reference)
            (run (fun c -> Curve.count_lt c (Time.of_int limit)) compact);
          Alcotest.(check (result int unit))
            (Printf.sprintf "first_gt %d" limit)
            (run (fun c -> Curve.first_gt c ~offset:2 (Time.of_int limit)) reference)
            (run (fun c -> Curve.first_gt c ~offset:2 (Time.of_int limit)) compact))
        [ 1; 2; 5; 7; 9; 10; 11; 29; 30; 31; 99; 100; 101; 250; 999; 12345 ])
    [
      [| 7 |], 1, 7;
      [| 5; 9; 30 |], 1, 25;
      [| 0; 0; 100 |], 3, 100;
      [| 2; 4; 6; 50 |], 2, 60;
      [| 10; 10; 10 |], 1, 0;
    ]

let test_periodic_search_beyond_cap () =
  (* the arithmetic inversion reaches indices the exponential search
     cannot: count below 10^12 for a period-5 curve *)
  let c = Curve.periodic ~prefix:[| 5 |] ~period_events:1 ~period_time:5 in
  let limit = 1_000_000_000_000 in
  (* eval n = 5 (n - 1); largest n with 5 (n - 1) < limit *)
  let expected = ((limit - 1) / 5) + 1 in
  Alcotest.(check int) "giant inversion" expected
    (Curve.count_lt c (Time.of_int limit));
  Alcotest.(check bool) "beyond the closure search cap" true
    (expected > Curve.search_cap)

let test_periodic_validation () =
  let invalid f = Alcotest.(check bool) "rejected" true
    (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  invalid (fun () -> Curve.periodic ~prefix:[| 5 |] ~period_events:0 ~period_time:1);
  invalid (fun () -> Curve.periodic ~prefix:[| 5 |] ~period_events:2 ~period_time:1);
  invalid (fun () -> Curve.periodic ~prefix:[| 5; 3 |] ~period_events:1 ~period_time:1);
  invalid (fun () -> Curve.periodic ~prefix:[| -1 |] ~period_events:1 ~period_time:1);
  invalid (fun () -> Curve.periodic ~prefix:[| 5 |] ~period_events:1 ~period_time:(-1));
  (* tail would fall below the prefix top: 0, 10, then 0 + 5 = 5 *)
  invalid (fun () ->
    Curve.periodic ~prefix:[| 0; 10 |] ~period_events:2 ~period_time:5)

(* The eventually-periodic representation itself: pinned values of one
   prefix-plus-recurrence curve, and the shapes it must reject. *)
let test_representation_eval () =
  (* delta 2 = 0, delta 3 = 10, then +100 per 2 events *)
  let c = Curve.periodic ~prefix:[| 0; 10 |] ~period_events:2 ~period_time:100 in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "n=%d" n)
        expected
        (Time.to_int (Curve.eval c n)))
    [ 0, 0; 1, 0; 2, 0; 3, 10; 4, 100; 5, 110; 6, 200; 20, 900 ]

let test_representation_validation () =
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "short prefix" true
    (raises (fun () ->
       Curve.periodic ~prefix:[| 5 |] ~period_events:2 ~period_time:10));
  Alcotest.(check bool) "non-monotone" true
    (raises (fun () ->
       Curve.periodic ~prefix:[| 10; 5 |] ~period_events:1 ~period_time:10));
  Alcotest.(check bool) "negative" true
    (raises (fun () ->
       Curve.periodic ~prefix:[| -1 |] ~period_events:1 ~period_time:10));
  Alcotest.(check bool) "recurrence breaks monotonicity" true
    (raises (fun () ->
       (* delta 3 = 50 but the recurrence gives delta 4 = 0 + 10 = 10 < 50 *)
       Curve.periodic ~prefix:[| 0; 50 |] ~period_events:2 ~period_time:10))

let test_stats_attribution () =
  let before = Curve.stats () in
  let compact = Curve.periodic ~prefix:[| 9 |] ~period_events:1 ~period_time:9 in
  ignore (Curve.eval compact 1000);
  let mid = Curve.stats () in
  let d = Curve.stats_diff mid before in
  Alcotest.(check bool) "periodic eval counted" true (d.Curve.periodic_evals >= 1);
  let cl = Curve.make (fun n -> Time.of_int n) in
  ignore (Curve.eval cl 5);
  ignore (Curve.eval cl 5);
  let d2 = Curve.stats_diff (Curve.stats ()) mid in
  Alcotest.(check int) "one miss" 1 d2.Curve.closure_evals;
  Alcotest.(check int) "one hit" 1 d2.Curve.memo_hits

(* Deep probes on a pointwise table stay pointwise: a signal with
   delta_min = 0 everywhere, packed with a periodic one and unpacked
   after a response with r- = 0, keeps delta_min = 0, so eta_plus 50
   searches up to the cap and is infinite.  Filling the table
   contiguously to the cap would allocate hundreds of megabytes; only
   the part below 2^15 may be filled. *)
let test_deep_probe_pointwise () =
  let module Stream = Event_model.Stream in
  let zero =
    Stream.make ~name:"zero" ~delta_min:(fun _ -> Time.zero)
      ~delta_plus:(fun _ -> Time.Inf)
  in
  let h =
    Hem.Pack.pack
      [
        Hem.Pack.input "zero" zero;
        Hem.Pack.input "p" (Stream.periodic ~name:"p" ~period:10);
      ]
    |> Hem.Inner_update.apply_response ~simultaneity:1
         ~response:(Timebase.Interval.make ~lo:0 ~hi:5)
  in
  let unpacked = Hem.Deconstruct.unpack_label h "zero" in
  Alcotest.(check bool) "table backend" true
    (Curve.backend (Stream.delta_min_curve unpacked) = `Table);
  let before = Gc.allocated_bytes () in
  let eta = Stream.eta_plus unpacked 50 in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "eta_plus 50 is infinite" true
    (eta = Timebase.Count.Inf);
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.1f MB, below 16 MB" (allocated /. 1e6))
    true
    (allocated < 16e6)

(* property: count_lt matches brute force on random step curves *)
let arb_steps = QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 20))

let curve_of_steps steps =
  (* monotone curve built from cumulative non-negative steps *)
  let arr = Array.of_list steps in
  Curve.make (fun n ->
    let rec total i acc =
      if i >= n || i >= Array.length arr then acc + ((n - i) * 7)
      else total (i + 1) (acc + arr.(i))
    in
    (* extend past the explicit prefix with slope 7 so it diverges *)
    Time.of_int (total 0 0))

let prop_count_lt_vs_brute =
  QCheck.Test.make ~name:"count_lt matches brute force" ~count:200
    (QCheck.pair arb_steps (QCheck.int_range 1 500)) (fun (steps, limit) ->
      let c = curve_of_steps steps in
      Curve.count_lt c (Time.of_int limit) = brute_count_lt c (Time.of_int limit))

let prop_first_gt_vs_brute =
  QCheck.Test.make ~name:"first_gt matches brute force" ~count:200
    (QCheck.pair arb_steps (QCheck.int_range 0 500)) (fun (steps, limit) ->
      let c = curve_of_steps steps in
      let brute =
        let rec scan n =
          if Time.(Curve.eval c (n + 2) > Time.of_int limit) then n
          else scan (n + 1)
        in
        scan 0
      in
      Curve.first_gt c ~offset:2 (Time.of_int limit) = brute)

(* batched sweeps vs the boxed scalar evaluator: no ordering assumption
   on the probe array, duplicates must hit the closure memo exactly like
   repeated scalar evals *)
let packed_of_time = function
  | Time.Fin d -> d
  | Time.Inf -> Curve.packed_inf

let arb_probes = QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 2000))

let batch_agrees c probes =
  let arr = Array.of_list probes in
  let batch = Curve.eval_batch c arr in
  Array.length batch = Array.length arr
  && Array.for_all2
       (fun b n -> b = packed_of_time (Curve.eval c n))
       batch arr

let prop_batch_closure =
  QCheck.Test.make ~name:"eval_batch = scalar eval (closure backend)"
    ~count:200
    (QCheck.pair arb_steps arb_probes)
    (fun (steps, probes) -> batch_agrees (curve_of_steps steps) probes)

let arb_periodic_params =
  QCheck.(
    quad (int_range 1 300) (int_range 0 600) (int_range 1 20) arb_probes)

let periodic_curve_of (period, jitter, d_min) =
  Event_model.Stream.delta_min_curve
    (Event_model.Stream.periodic_jitter ~name:"p" ~period ~jitter
       ~d_min:(Stdlib.min d_min period) ())

let prop_batch_periodic =
  QCheck.Test.make ~name:"eval_batch = scalar eval (periodic backend)"
    ~count:200 arb_periodic_params
    (fun (period, jitter, d_min, probes) ->
      batch_agrees (periodic_curve_of (period, jitter, d_min)) probes)

(* the compact walk from any [n0] (below 2, inside the prefix, deep in
   the tail), on jittered and multi-event-period (burst) curves *)
let prop_range_into =
  QCheck.Test.make ~name:"eval_range_into = scalar eval" ~count:200
    (QCheck.quad
       (QCheck.pair (QCheck.int_range 1 300) (QCheck.int_range 1 5))
       (QCheck.int_range 0 600)
       (QCheck.oneof
          [ QCheck.int_range (-3) 200; QCheck.int_range 30_000 40_000 ])
       (QCheck.int_range 0 60))
    (fun ((period, burst), jitter, n0, len) ->
      let c =
        if burst = 1 then periodic_curve_of (period, jitter, 1)
        else
          Event_model.Stream.delta_min_curve
            (Event_model.Stream.periodic_burst ~name:"b" ~period:(period * burst)
               ~burst ~d_min:(period / 2))
      in
      let dst = Array.make (len + 3) (-1) in
      Curve.eval_range_into c ~n0 ~len ~dst ~pos:2;
      dst.(0) = -1
      && dst.(1) = -1
      && Array.for_all Fun.id
           (Array.init len (fun i ->
                dst.(i + 2) = packed_of_time (Curve.eval c (n0 + i)))))

(* the warm-start hint contract: feeding the previous answer + 1 as [lo]
   is sound whenever the limit only grows *)
let prop_count_lt_packed_hint =
  QCheck.Test.make ~name:"count_lt_packed hint agreement" ~count:200
    (QCheck.pair arb_steps
       QCheck.(list_of_size (Gen.int_range 1 10) (int_range 1 400)))
    (fun (steps, limits) ->
      let c = curve_of_steps steps in
      let limits = List.sort_uniq compare limits in
      let lo = ref 1 in
      List.for_all
        (fun limit ->
          let expected = Curve.count_lt c (Time.of_int limit) in
          let got = Curve.count_lt_packed c ~lo:!lo ~limit in
          lo := got + 1;
          got = expected)
        limits)

(* Minor-heap words allocated per call of [f] over [iters] calls, after
   one warmup call. *)
let minor_words_per_call ?(iters = 100_000) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* The packed fast paths on a periodic-jitter tail must not allocate:
   they run once per busy-window probe. *)
let test_packed_paths_allocation_free () =
  let c =
    Event_model.Stream.delta_min_curve
      (Event_model.Stream.periodic_jitter ~name:"alloc-probe" ~period:250
         ~jitter:400 ())
  in
  Alcotest.(check (float 0.0)) "eval_packed words per call" 0.0
    (minor_words_per_call (fun () -> Curve.eval_packed c 1013));
  Alcotest.(check (float 0.0)) "count_lt_packed words per call" 0.0
    (minor_words_per_call (fun () ->
         Curve.count_lt_packed c ~lo:1 ~limit:100_000))

let () =
  Alcotest.run "curve"
    [
      ( "engine",
        [
          Alcotest.test_case "memoization" `Quick test_eval_memoizes;
          Alcotest.test_case "table recurrence" `Quick test_table_recurrence;
          Alcotest.test_case "constant" `Quick test_constant;
        ] );
      ( "search",
        [
          Alcotest.test_case "count_lt linear" `Quick test_count_lt_linear;
          Alcotest.test_case "count_lt positive limit" `Quick
            test_count_lt_requires_positive;
          Alcotest.test_case "count_lt nonzero at n=1" `Quick
            test_count_lt_nonzero_at_one;
          Alcotest.test_case "count_lt unbounded" `Quick test_count_lt_unbounded;
          Alcotest.test_case "first_gt" `Quick test_first_gt;
          Alcotest.test_case "first_gt inf" `Quick test_first_gt_inf_curve;
        ] );
      ( "periodic backend",
        [
          Alcotest.test_case "eval matches closure" `Quick
            test_periodic_eval_matches_closure;
          Alcotest.test_case "searches match closure" `Quick
            test_periodic_searches_match_closure;
          Alcotest.test_case "inversion beyond search cap" `Quick
            test_periodic_search_beyond_cap;
          Alcotest.test_case "validation" `Quick test_periodic_validation;
          Alcotest.test_case "stats attribution" `Quick test_stats_attribution;
          Alcotest.test_case "packed paths allocation-free" `Quick
            test_packed_paths_allocation_free;
        ] );
      ( "representation",
        [
          Alcotest.test_case "eval" `Quick test_representation_eval;
          Alcotest.test_case "validation" `Quick test_representation_validation;
        ] );
      ( "table backend",
        [
          Alcotest.test_case "deep probe on a pointwise table" `Quick
            test_deep_probe_pointwise;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_count_lt_vs_brute;
            prop_first_gt_vs_brute;
            prop_batch_closure;
            prop_batch_periodic;
            prop_range_into;
            prop_count_lt_packed_hint;
          ] );
    ]
