(* Tests for the real-time-calculus substrate: numeric curves, (min,+)
   operations, greedy processing components, and cross-validation of the
   RTC fixed-priority chain against the busy-window analysis and the
   simulator. *)

module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Curve = Rtc.Curve
module Workload = Rtc.Workload
module Gpc = Rtc.Gpc

(* ------------------------------------------------------------------ *)
(* curves *)

let test_linear_curve () =
  let c = Curve.linear ~kind:Curve.Lower ~horizon:10 ~rate:(1, 1) in
  Alcotest.(check int) "eval 0" 0 (Curve.eval c 0);
  Alcotest.(check int) "eval 7" 7 (Curve.eval c 7);
  Alcotest.(check int) "beyond horizon" 100 (Curve.eval c 100);
  let half = Curve.linear ~kind:Curve.Lower ~horizon:10 ~rate:(1, 2) in
  Alcotest.(check int) "floor" 3 (Curve.eval half 7);
  let half_up = Curve.linear ~kind:Curve.Upper ~horizon:10 ~rate:(1, 2) in
  Alcotest.(check int) "ceil" 4 (Curve.eval half_up 7);
  (* tail rounding follows the kind *)
  Alcotest.(check int) "tail floor" 50 (Curve.eval half 100);
  Alcotest.(check int) "tail ceil" 50 (Curve.eval half_up 100)

let test_curve_validation () =
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "horizon 0" true
    (raises (fun () ->
       Curve.create ~kind:Curve.Upper ~horizon:0 ~tail_rate:(1, 1) (fun _ -> 0)));
  Alcotest.(check bool) "bad denominator" true
    (raises (fun () ->
       Curve.create ~kind:Curve.Upper ~horizon:5 ~tail_rate:(1, 0) (fun _ -> 0)));
  Alcotest.(check bool) "negative eval" true
    (raises (fun () ->
       Curve.eval (Curve.linear ~kind:Curve.Upper ~horizon:5 ~rate:(1, 1)) (-1)));
  Alcotest.(check bool) "kind mismatch" true
    (raises (fun () ->
       Curve.min
         (Curve.linear ~kind:Curve.Upper ~horizon:5 ~rate:(1, 1))
         (Curve.linear ~kind:Curve.Lower ~horizon:5 ~rate:(1, 1))))

let test_pointwise_ops () =
  let a = Curve.linear ~kind:Curve.Upper ~horizon:20 ~rate:(2, 1) in
  let b = Curve.linear ~kind:Curve.Upper ~horizon:20 ~rate:(3, 1) in
  Alcotest.(check int) "add" 25 (Curve.eval (Curve.add a b) 5);
  Alcotest.(check int) "min" 10 (Curve.eval (Curve.min a b) 5);
  Alcotest.(check int) "max" 15 (Curve.eval (Curve.max a b) 5)

let test_convolution () =
  (* conv of two linear curves of equal rate is the same line *)
  let a = Curve.linear ~kind:Curve.Lower ~horizon:30 ~rate:(2, 1) in
  let conv = Curve.min_plus_conv a a in
  Alcotest.(check int) "same line" 20 (Curve.eval conv 10);
  (* conv with a delayed curve shifts: f = dt, g = max 0 (dt - 5) *)
  let f = Curve.linear ~kind:Curve.Lower ~horizon:30 ~rate:(1, 1) in
  let g = Workload.service_bounded_delay ~horizon:30 ~delay:5 ~rate:(1, 1) in
  let fg = Curve.min_plus_conv f g in
  Alcotest.(check int) "shifted" 5 (Curve.eval fg 10);
  Alcotest.(check int) "zero region" 0 (Curve.eval fg 5)

let test_deconvolution () =
  (* a stair arrival deconvolved by a full service recovers burst+rate *)
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:100 ~wcet:3 stream in
  let beta_as_upper =
    Curve.create ~kind:Curve.Upper ~horizon:100 ~tail_rate:(1, 1) (fun dt -> dt)
  in
  let out = Curve.min_plus_deconv alpha beta_as_upper in
  (* output still bounded: at most one event (3 units) instantly *)
  Alcotest.(check bool) "bounded burst" true (Curve.eval out 0 <= 3);
  Alcotest.(check bool) "dominates input" true
    (Curve.eval out 50 >= Curve.eval alpha 50)

let test_deviations () =
  (* periodic demand C=3 every 10 on a unit-rate resource: delay 3 *)
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:200 ~wcet:3 stream in
  let beta = Workload.service_full ~horizon:200 in
  Alcotest.(check (option int)) "delay" (Some 3)
    (Curve.horizontal_deviation ~upper:alpha ~lower:beta);
  Alcotest.(check (option int)) "backlog" (Some 3)
    (Curve.vertical_deviation ~upper:alpha ~lower:beta)

let test_tdma_service_curve () =
  let beta = Workload.service_tdma ~horizon:100 ~slot:3 ~cycle:10 in
  Alcotest.(check int) "blank region" 0 (Curve.eval beta 7);
  Alcotest.(check int) "one slot" 3 (Curve.eval beta 10);
  Alcotest.(check int) "two slots" 6 (Curve.eval beta 20);
  (* agrees with the busy-window TDMA service bound everywhere *)
  for dt = 0 to 100 do
    Alcotest.(check int)
      (Printf.sprintf "dt=%d" dt)
      (Scheduling.Tdma.service ~slot:3 ~cycle:10 dt)
      (Curve.eval beta dt)
  done

(* ------------------------------------------------------------------ *)
(* greedy processing component *)

let test_gpc_single () =
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:200 ~wcet:4 stream in
  let beta = Workload.service_full ~horizon:200 in
  let result = Gpc.process ~arrival_upper:alpha ~service_lower:beta in
  Alcotest.(check (option int)) "delay = wcet" (Some 4) result.Gpc.delay;
  Alcotest.(check (option int)) "backlog = wcet" (Some 4) result.Gpc.backlog;
  (* remaining service over one period: best split is s = 9 just before
     the next closed-window arrival: 9 - 4 = 5 *)
  Alcotest.(check int) "remaining over one period" 5
    (Curve.eval result.Gpc.remaining_lower 10)

let test_gpc_overload_no_delay_bound () =
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:100 ~wcet:20 stream in
  let beta = Workload.service_full ~horizon:100 in
  let result = Gpc.process ~arrival_upper:alpha ~service_lower:beta in
  Alcotest.(check (option int)) "unbounded" None result.Gpc.delay

let test_fp_chain_vs_busy_window () =
  (* the textbook RM set: C = (1, 2, 3), T = (4, 6, 13); busy-window
     R = (1, 3, 10); RTC delay bounds must be sound (>= simulated = same
     pattern) and are close to the busy-window results *)
  let horizon = 400 in
  let arrival period wcet =
    Workload.arrival_upper ~horizon ~wcet
      (Stream.periodic ~name:"s" ~period)
  in
  let results =
    Gpc.fixed_priority_chain
      ~service:(Workload.service_full ~horizon)
      [
        { Gpc.name = "t1"; arrival_upper = arrival 4 1 };
        { Gpc.name = "t2"; arrival_upper = arrival 6 2 };
        { Gpc.name = "t3"; arrival_upper = arrival 13 3 };
      ]
  in
  let delay name =
    match List.assoc name results with
    | { Gpc.delay = Some d; _ } -> d
    | { Gpc.delay = None; _ } -> Alcotest.failf "unbounded %s" name
  in
  Alcotest.(check int) "t1" 1 (delay "t1");
  Alcotest.(check int) "t2" 3 (delay "t2");
  (* RTC with full curves is as tight as the busy window here *)
  Alcotest.(check int) "t3" 10 (delay "t3");
  (* busy-window reference *)
  let task name cet priority period =
    Scheduling.Rt_task.make ~name ~cet:(Interval.point cet) ~priority
      ~activation:(Stream.periodic ~name:(name ^ ".act") ~period)
  in
  let t1 = task "t1" 1 1 4
  and t2 = task "t2" 2 2 6
  and t3 = task "t3" 3 3 13 in
  List.iter
    (fun (t, others, rtc_delay) ->
      match Scheduling.Spp.response_time ~task:t ~others () with
      | Scheduling.Busy_window.Bounded r ->
        Alcotest.(check bool)
          (t.Scheduling.Rt_task.name ^ ": frameworks agree within slack")
          true
          (rtc_delay >= Interval.hi r)
      | Scheduling.Busy_window.Unbounded _ -> Alcotest.fail "unexpected")
    [ t1, [ t2; t3 ], delay "t1"; t2, [ t1; t3 ], delay "t2";
      t3, [ t1; t2 ], delay "t3" ]

let test_tdma_delay_matches_busy_window () =
  (* a task on a TDMA slot analysed by both frameworks: the RTC delay on
     the TDMA service curve equals the busy-window response time, since
     they share the same supply bound *)
  let cases =
    [ 2, 3, 10, 50; 7, 3, 10, 100; 4, 5, 8, 60; 12, 4, 16, 200 ]
  in
  List.iter
    (fun (cet, slot, cycle, period) ->
      let task =
        Scheduling.Rt_task.make ~name:"t" ~cet:(Interval.point cet) ~priority:1
          ~activation:(Stream.periodic ~name:"act" ~period)
      in
      let other =
        Scheduling.Rt_task.make ~name:"o" ~cet:(Interval.point 1) ~priority:1
          ~activation:(Stream.periodic ~name:"oact" ~period:1000)
      in
      let slots =
        [ { Scheduling.Tdma.task; length = slot };
          { Scheduling.Tdma.task = other; length = cycle - slot } ]
      in
      let busy_window =
        match Scheduling.Tdma.response_time ~slots ~task () with
        | Scheduling.Busy_window.Bounded r -> Interval.hi r
        | Scheduling.Busy_window.Unbounded _ -> Alcotest.fail "unbounded"
      in
      let rtc =
        let result =
          Gpc.process
            ~arrival_upper:
              (Workload.arrival_upper ~horizon:2000 ~wcet:cet
                 (Stream.periodic ~name:"act" ~period))
            ~service_lower:(Workload.service_tdma ~horizon:2000 ~slot ~cycle)
        in
        match result.Gpc.delay with
        | Some d -> d
        | None -> Alcotest.fail "unbounded rtc"
      in
      Alcotest.(check int)
        (Printf.sprintf "C=%d slot=%d cycle=%d" cet slot cycle)
        busy_window rtc)
    cases

let test_fp_chain_order_matters () =
  let horizon = 300 in
  let arrival period wcet =
    Workload.arrival_upper ~horizon ~wcet (Stream.periodic ~name:"s" ~period)
  in
  let chain order =
    Gpc.fixed_priority_chain ~service:(Workload.service_full ~horizon) order
  in
  let heavy = { Gpc.name = "heavy"; arrival_upper = arrival 10 5 } in
  let light = { Gpc.name = "light"; arrival_upper = arrival 50 2 } in
  let delay results name =
    match List.assoc name results with
    | { Gpc.delay = Some d; _ } -> d
    | { Gpc.delay = None; _ } -> max_int
  in
  let light_last = delay (chain [ heavy; light ]) "light" in
  let light_first = delay (chain [ light; heavy ]) "light" in
  Alcotest.(check bool) "lower priority waits longer" true
    (light_last > light_first)

(* ------------------------------------------------------------------ *)
(* certified tails of the workload curves *)

let test_long_period_tail_rate () =
  (* regression: the tail-rate window search used to consider only
     windows up to 128 samples, so a periodic stream with period 2400
     got a certified rate of wcet/128 instead of ~wcet/2400 — nearly
     twenty times too steep, which collapsed the remaining service of
     interfered elements in the hybrid backend.  The long-window ladder
     keeps the tail within a small factor of the exact demand. *)
  let period = 2400 and wcet = 20 and horizon = 4096 in
  let s = Stream.periodic ~name:"slow" ~period in
  let alpha = Workload.arrival_upper ~horizon ~wcet s in
  let dt = 10 * horizon in
  let exact = wcet * (((dt - 1) / period) + 1) in
  let v = Curve.eval alpha dt in
  Alcotest.(check bool) "tail dominates the exact demand" true (v >= exact);
  Alcotest.(check bool)
    (Printf.sprintf "tail within 2x of exact (%d vs %d)" v exact)
    true
    (v <= 2 * exact)

let prop_arrival_tails_conservative =
  (* satellite of the hybrid coupling: past the sampled horizon the
     certified tails must stay on the right side of the exact stream
     demand, arbitrarily far out and for any jitter *)
  QCheck.Test.make ~name:"arrival curve tails bound the stream" ~count:50
    (QCheck.pair
       (QCheck.pair (QCheck.int_range 5 400) (QCheck.int_range 0 60))
       (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 1 8)))
    (fun ((period, jitter), (wcet, mult)) ->
      let horizon = 100 in
      let s = Stream.periodic_jitter ~name:"t" ~period ~jitter () in
      let upper = Workload.arrival_upper ~horizon ~wcet s in
      let lower = Workload.arrival_lower ~horizon ~bcet:wcet s in
      let dt = (mult * horizon) + (mult * period / 2) in
      let eta_p = Timebase.Count.to_int (Stream.eta_plus s dt) in
      let eta_m = Timebase.Count.to_int (Stream.eta_minus s dt) in
      Curve.eval upper dt >= wcet * eta_p
      && Curve.eval lower dt <= wcet * eta_m)

(* ------------------------------------------------------------------ *)
(* properties *)

let test_map2_mismatched_horizons () =
  (* pins the map2 horizon convention: the combination keeps the LARGER
     horizon, so in the gap where only the shorter curve has run out of
     samples the result is exact (the shorter curve contributes its
     certified tail) instead of tail-projected from the shorter range *)
  let a = Curve.linear ~kind:Curve.Upper ~horizon:50 ~rate:(1, 1) in
  let b = Curve.linear ~kind:Curve.Upper ~horizon:20 ~rate:(1, 2) in
  let add_rates (n1, d1) (n2, d2) = ((n1 * d2) + (n2 * d1), d1 * d2) in
  let c = Curve.map2 ( + ) add_rates a b in
  Alcotest.(check int) "keeps the larger horizon" 50 (Curve.horizon c);
  for dt = 0 to 50 do
    Alcotest.(check int)
      (Printf.sprintf "exact at %d" dt)
      (Curve.eval a dt + Curve.eval b dt)
      (Curve.eval c dt)
  done;
  List.iter
    (fun dt ->
      Alcotest.(check bool)
        (Printf.sprintf "conservative at %d" dt)
        true
        (Curve.eval c dt >= Curve.eval a dt + Curve.eval b dt))
    [ 51; 64; 100; 200 ]

let prop_conv_dominated =
  (* (f (x) f)(dt) <= f(0) + f(dt) by choosing the trivial split *)
  QCheck.Test.make ~name:"convolution dominated by trivial split" ~count:40
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 0 40))
    (fun (rate, dt) ->
      let rate = Stdlib.max 1 rate in
      let f = Curve.linear ~kind:Curve.Lower ~horizon:50 ~rate:(rate, 1) in
      Curve.eval (Curve.min_plus_conv f f) dt <= Curve.eval f 0 + Curve.eval f dt)

let prop_deconv_dominates =
  (* (f (/) g)(dt) >= f(dt) - g(0) = f(dt): the s = 0 term of the sup *)
  QCheck.Test.make ~name:"deconvolution dominates the original" ~count:40
    (QCheck.pair (QCheck.int_range 1 10) (QCheck.int_range 0 40))
    (fun (period, dt) ->
      let period = Stdlib.max 1 period in
      let alpha =
        Workload.arrival_upper ~horizon:100 ~wcet:1
          (Stream.periodic ~name:"p" ~period)
      in
      let beta =
        Curve.create ~kind:Curve.Upper ~horizon:100 ~tail_rate:(1, 1)
          (fun x -> x)
      in
      Curve.eval (Curve.min_plus_deconv alpha beta) dt >= Curve.eval alpha dt)

(* ------------------------------------------------------------------ *)
(* deconvolution against the closure-scan reference *)

let ceil_div a b = (a + b - 1) / b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The direct form of [Curve.min_plus_deconv]: every sample and every
   tail probe rescans the whole lag range through [Curve.eval].  The
   library kernel tabulates its operands instead and must reproduce this
   exactly: the same samples, tail rate and tail offset, and [None]
   (Unstable) on the same inputs. *)
let reference_deconv f g =
  let f, g = Curve.harmonise f g in
  let ((num, den) as rf) = Curve.tail_rate f and rg = Curve.tail_rate g in
  if not (Curve.rate_le rf rg) then None
  else begin
    let h = Stdlib.max (Curve.horizon f) (Curve.horizon g) in
    let search_limit = h + (den / gcd den (snd rg) * snd rg) in
    let value dt =
      let rec scan s best =
        if s > search_limit then best
        else
          scan (s + 1)
            (Stdlib.max best (Curve.eval f (dt + s) - Curve.eval g s))
      in
      scan 1 (Curve.eval f dt - Curve.eval g 0)
    in
    let anchor = value h in
    let slack = ref 0 in
    for x = 1 to den do
      let d =
        match Curve.kind f with
        | Curve.Upper -> value (h + x) - anchor - ceil_div (x * num) den
        | Curve.Lower -> anchor + (x * num / den) - value (h + x)
      in
      if d > !slack then slack := d
    done;
    let offset =
      match Curve.kind f with Curve.Upper -> !slack | Curve.Lower -> - !slack
    in
    Some (Curve.kind f, Array.init (h + 1) value, rf, offset)
  end

let library_deconv f g =
  match Curve.min_plus_deconv f g with
  | c ->
    Some
      ( Curve.kind c,
        Array.init (Curve.horizon c + 1) (Curve.eval c),
        Curve.tail_rate c,
        Curve.tail_offset c )
  | exception Curve.Unstable _ -> None

(* Numerators are arrival curves of jittery or bursty streams; the
   denominators cover every service shape the hybrid backend feeds in,
   plus an Upper-kind line.  Horizons are drawn independently. *)
type arrival = {
  period : int;
  jitter : int;
  burst : int;
  wcet : int;
  a_horizon : int;
}

type service =
  | Full
  | Rate of int * int
  | Tdma of int * int  (* slot, cycle *)
  | Blocked of int * service
  | Remaining of arrival list * service
  | Upper_line of int * int

let arrival_curve a =
  let stream =
    if a.burst > 1 then
      Stream.periodic_burst ~name:"b" ~period:a.period ~burst:a.burst
        ~d_min:(Stdlib.max 1 (a.period / (2 * a.burst)))
    else Stream.periodic_jitter ~name:"j" ~period:a.period ~jitter:a.jitter ()
  in
  Workload.arrival_upper ~horizon:a.a_horizon ~wcet:a.wcet stream

let rec service_curve ~horizon = function
  | Full -> Workload.service_full ~horizon
  | Rate (num, den) -> Workload.service_rate ~horizon ~rate:(num, den)
  | Tdma (slot, cycle) -> Workload.service_tdma ~horizon ~slot ~cycle
  | Blocked (blocking, s) ->
    Workload.service_delayed ~blocking (service_curve ~horizon s)
  | Remaining (interferers, s) ->
    List.fold_left
      (fun beta a ->
        Gpc.remaining_service ~arrival_upper:(arrival_curve a)
          ~service_lower:beta)
      (service_curve ~horizon s) interferers
  | Upper_line (num, den) ->
    Curve.linear ~kind:Curve.Upper ~horizon ~rate:(num, den)

let string_of_arrival a =
  Printf.sprintf "arrival(T=%d J=%d burst=%d C=%d h=%d)" a.period a.jitter
    a.burst a.wcet a.a_horizon

let rec string_of_service = function
  | Full -> "full"
  | Rate (n, d) -> Printf.sprintf "rate %d/%d" n d
  | Tdma (s, c) -> Printf.sprintf "tdma %d/%d" s c
  | Blocked (b, s) -> Printf.sprintf "blocked %d (%s)" b (string_of_service s)
  | Remaining (xs, s) ->
    Printf.sprintf "remaining [%s] (%s)"
      (String.concat "; " (List.map string_of_arrival xs))
      (string_of_service s)
  | Upper_line (n, d) -> Printf.sprintf "upper line %d/%d" n d

let gen_arrival ~max_wcet =
  let open QCheck.Gen in
  let* period = int_range 5 300 in
  let* jitter = int_range 0 (2 * period) in
  let* burst = frequency [ 3, return 1; 1, int_range 2 4 ] in
  let* wcet = int_range 1 max_wcet in
  let+ a_horizon = int_range 16 200 in
  { period; jitter; burst; wcet; a_horizon }

let gen_service =
  let open QCheck.Gen in
  (* prime denominators and long TDMA cycles push the lcm with an arrival
     window past harmonise's cap of 720 *)
  let base =
    frequency
      [
        2, return Full;
        2, map2 (fun n d -> Rate (Stdlib.min n d, d)) (int_range 1 13)
             (oneofl [ 1; 2; 7; 11; 13 ]);
        3, (let* cycle = int_range 2 40 in
            let+ slot = int_range 1 cycle in
            Tdma (slot, cycle));
      ]
  in
  let blocked = map2 (fun b s -> Blocked (b, s)) (int_range 1 30) base in
  frequency
    [
      3, base;
      2, blocked;
      3, map2 (fun xs s -> Remaining (xs, s))
           (list_size (int_range 1 3) (gen_arrival ~max_wcet:2))
           (oneof [ base; blocked ]);
      1, map2 (fun n d -> Upper_line (n, d)) (int_range 1 4) (int_range 1 3);
    ]

let deconv_case =
  let open QCheck.Gen in
  let gen =
    let* a = gen_arrival ~max_wcet:6 in
    let* s = gen_service in
    let+ s_horizon = int_range 16 200 in
    a, s, s_horizon
  in
  QCheck.make gen ~print:(fun (a, s, h) ->
      Printf.sprintf "%s (/) %s at horizon %d" (string_of_arrival a)
        (string_of_service s) h)

let prop_deconv_matches_reference =
  QCheck.Test.make ~name:"deconvolution equals the closure-scan reference"
    ~count:150 deconv_case (fun (a, s, horizon) ->
      let f = arrival_curve a and g = service_curve ~horizon s in
      library_deconv f g = reference_deconv f g)

let test_deconv_reference_cases () =
  (* fixed cases that the property reaches only by chance: coarsened
     tails (periodic arrivals take their own period as window, so T=97
     against a 1/11 rate or an 11-slot cycle exceeds the lcm cap), a
     remaining service with a negative tail offset, and overload *)
  let arrival period wcet horizon =
    { period; jitter = 0; burst = 1; wcet; a_horizon = horizon }
  in
  let remaining = Remaining ([ arrival 30 2 80 ], Tdma (6, 10)) in
  Alcotest.(check bool) "remaining service has a negative tail offset" true
    (Curve.tail_offset (service_curve ~horizon:90 remaining) < 0);
  let cases =
    [
      arrival 97 3 150, Rate (1, 11), 120, true, true;
      arrival 97 3 150, Tdma (5, 11), 200, true, true;
      arrival 127 2 150, Rate (5, 7), 130, true, true;
      arrival 40 3 100, remaining, 90, false, true;
      arrival 10 7 100, Tdma (3, 10), 100, false, false;
    ]
  in
  List.iter
    (fun (a, s, horizon, coarsened, stable) ->
      let name = string_of_arrival a ^ " (/) " ^ string_of_service s in
      let f = arrival_curve a and g = service_curve ~horizon s in
      let df = snd (Curve.tail_rate f) and dg = snd (Curve.tail_rate g) in
      Alcotest.(check bool) (name ^ ": coarsened") coarsened
        (df / gcd df dg * dg > 720);
      let reference = reference_deconv f g in
      Alcotest.(check bool) (name ^ ": stability") stable (reference <> None);
      Alcotest.(check bool) (name ^ ": equal") true
        (library_deconv f g = reference))
    cases

let () =
  Alcotest.run "rtc"
    [
      ( "curves",
        [
          Alcotest.test_case "linear" `Quick test_linear_curve;
          Alcotest.test_case "validation" `Quick test_curve_validation;
          Alcotest.test_case "pointwise" `Quick test_pointwise_ops;
          Alcotest.test_case "convolution" `Quick test_convolution;
          Alcotest.test_case "deconvolution" `Quick test_deconvolution;
          Alcotest.test_case "deviations" `Quick test_deviations;
          Alcotest.test_case "tdma service" `Quick test_tdma_service_curve;
          Alcotest.test_case "long-period tail rate" `Quick
            test_long_period_tail_rate;
          Alcotest.test_case "map2 mismatched horizons" `Quick
            test_map2_mismatched_horizons;
          Alcotest.test_case "deconvolution reference cases" `Quick
            test_deconv_reference_cases;
        ] );
      ( "gpc",
        [
          Alcotest.test_case "single component" `Quick test_gpc_single;
          Alcotest.test_case "overload" `Quick test_gpc_overload_no_delay_bound;
          Alcotest.test_case "fp chain vs busy window" `Quick
            test_fp_chain_vs_busy_window;
          Alcotest.test_case "tdma vs busy window" `Quick
            test_tdma_delay_matches_busy_window;
          Alcotest.test_case "chain order" `Quick test_fp_chain_order_matters;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_conv_dominated;
            prop_deconv_dominates;
            prop_arrival_tails_conservative;
            prop_deconv_matches_reference;
          ] );
    ]
