(* Tests for the real-time-calculus substrate: numeric curves, (min,+)
   operations, greedy processing components, and cross-validation of the
   RTC static-priority local analysis against the busy-window analysis
   and the simulator. *)

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
       Curve.horizontal_deviation
         ~upper:(Curve.linear ~kind:Curve.Lower ~horizon:5 ~rate:(1, 1))
         ~lower:(Curve.linear ~kind:Curve.Upper ~horizon:5 ~rate:(1, 1))))

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
    (Curve.horizontal_deviation ~upper:alpha ~lower:beta)

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
  (* remaining service over one period: best split is s = 9 just before
     the next closed-window arrival: 9 - 4 = 5 *)
  let remaining = Gpc.remaining_service ~arrival_upper:alpha ~service_lower:beta in
  Alcotest.(check int) "remaining over one period" 5 (Curve.eval remaining 10)

let test_gpc_overload_no_delay_bound () =
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:100 ~wcet:20 stream in
  let beta = Workload.service_full ~horizon:100 in
  let result = Gpc.process ~arrival_upper:alpha ~service_lower:beta in
  Alcotest.(check (option int)) "unbounded" None result.Gpc.delay

(* One static-priority resource through the RTC local analysis the
   engine runs: [(name, period, wcet, priority)] periodic tasks, each
   element's delay bound ([max_int] when unbounded). *)
let spp_delays tasks =
  let items =
    List.map
      (fun (name, period, wcet, priority) ->
        {
          Hybrid.Local.name;
          cet = Interval.point wcet;
          priority;
          service = None;
          activation = Stream.periodic ~name:(name ^ ".act") ~period;
        })
      tasks
  in
  List.map
    (fun (o : Hybrid.Local.outcome) ->
      ( o.name,
        match o.response with
        | Scheduling.Busy_window.Bounded r -> Interval.hi r
        | Scheduling.Busy_window.Unbounded _ -> max_int ))
    (Hybrid.Local.analyse ~policy:Hybrid.Local.Spp items)

let test_fp_chain_vs_busy_window () =
  (* the textbook RM set: C = (1, 2, 3), T = (4, 6, 13); busy-window
     R = (1, 3, 10); RTC delay bounds must be sound (>= simulated = same
     pattern) and are close to the busy-window results *)
  let results = spp_delays [ "t1", 4, 1, 1; "t2", 6, 2, 2; "t3", 13, 3, 3 ] in
  let delay name =
    match List.assoc name results with
    | d when d = max_int -> Alcotest.failf "unbounded %s" name
    | d -> d
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
  let light_delay ~light_priority =
    List.assoc "light"
      (spp_delays [ "heavy", 10, 5, 2; "light", 50, 2, light_priority ])
  in
  let light_last = light_delay ~light_priority:3 in
  let light_first = light_delay ~light_priority:1 in
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
  | Rate (num, den) -> Curve.linear ~kind:Curve.Lower ~horizon ~rate:(num, den)
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

(* Fixed cases that the property reaches only by chance: coarsened tails
   (periodic arrivals take their own period as window, so T=97 against a
   1/11 rate or an 11-slot cycle exceeds the lcm cap), a remaining
   service with a negative tail offset, overload, and dense numerator
   tails.  Each is (arrival, service, service horizon, coarsened,
   stable). *)
let ref_arrival period wcet horizon =
  { period; jitter = 0; burst = 1; wcet; a_horizon = horizon }

let ref_remaining = Remaining ([ ref_arrival 30 2 80 ], Tdma (6, 10))

let deconv_reference_cases =
  [
    ref_arrival 97 3 150, Rate (1, 11), 120, true, true;
    ref_arrival 97 3 150, Tdma (5, 11), 200, true, true;
    ref_arrival 127 2 150, Rate (5, 7), 130, true, true;
    ref_arrival 40 3 100, ref_remaining, 90, false, true;
    ref_arrival 10 7 100, Tdma (3, 10), 100, false, false;
    (* wcet close to the period: the numerator's rounded tail steps at
       almost every sample, so nearly every lag is a candidate *)
    ref_arrival 7 6 120, Full, 100, false, true;
    ref_arrival 13 12 80, Rate (12, 13), 150, false, true;
    ref_arrival 11 10 64, Tdma (11, 12), 90, false, true;
  ]

let test_deconv_reference_cases () =
  Alcotest.(check bool) "remaining service has a negative tail offset" true
    (Curve.tail_offset (service_curve ~horizon:90 ref_remaining) < 0);
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
    deconv_reference_cases

(* The deconvolution reuses one work scratch per domain.  Two domains
   run the reference cases at once, in opposite orders and for several
   rounds (so each scratch keeps stale entries from larger calls), and
   must reproduce a serial run exactly.  The curves are built up front:
   they are immutable, unlike the streams they come from. *)
let test_deconv_scratch_domains () =
  let operands =
    List.map
      (fun (a, s, horizon, _, _) -> arrival_curve a, service_curve ~horizon s)
      deconv_reference_cases
  in
  let run order =
    List.concat
      (List.init 20 (fun _ ->
           List.map (fun (f, g) -> library_deconv f g) (order operands)))
  in
  let serial = run Fun.id in
  let forward = Domain.spawn (fun () -> run Fun.id)
  and backward = Domain.spawn (fun () -> List.rev (run List.rev)) in
  let forward = Domain.join forward and backward = Domain.join backward in
  Alcotest.(check bool) "forward domain matches the serial run" true
    (forward = serial);
  (* every round of [run List.rev] is reversed, so reversing the whole
     concatenation restores the serial order *)
  Alcotest.(check bool) "backward domain matches the serial run" true
    (backward = serial)

(* [Curve.equal] compares representations: kind, samples, tail rate and
   tail offset. *)
let test_curve_equal () =
  let stair () = Array.init 41 (fun dt -> 3 * ((dt + 9) / 10)) in
  let make ?(kind = Curve.Upper) ?(tail_rate = (3, 10)) ?(tail_offset = 0)
      samples =
    Curve.of_samples ~kind ~tail_rate ~tail_offset samples
  in
  let base = make (stair ()) in
  let equal = Alcotest.(check bool) in
  equal "itself" true (Curve.equal base base);
  equal "same representation, separate arrays" true
    (Curve.equal base (make (stair ())));
  equal "same table through linear" true
    (Curve.equal
       (Curve.linear ~kind:Curve.Lower ~horizon:30 ~rate:(2, 3))
       (Curve.linear ~kind:Curve.Lower ~horizon:30 ~rate:(2, 3)));
  equal "tail offset differs" false
    (Curve.equal base (make ~tail_offset:1 (stair ())));
  let one_sample = stair () in
  one_sample.(17) <- one_sample.(17) + 1;
  equal "one sample differs" false (Curve.equal base (make one_sample));
  equal "kind differs" false
    (Curve.equal base (make ~kind:Curve.Lower (stair ())));
  equal "tail rate differs" false
    (Curve.equal base (make ~tail_rate:(1, 3) (stair ())));
  (* the same function at two horizons, or with its tail rate over
     another denominator: equal values everywhere, unequal curves *)
  let short = Curve.linear ~kind:Curve.Lower ~horizon:10 ~rate:(1, 2)
  and long = Curve.linear ~kind:Curve.Lower ~horizon:20 ~rate:(1, 2)
  and scaled = Curve.linear ~kind:Curve.Lower ~horizon:10 ~rate:(2, 4) in
  List.iter
    (fun (name, c) ->
      equal (name ^ ": same values") true
        (List.for_all
           (fun dt -> Curve.eval short dt = Curve.eval c dt)
           (List.init 200 Fun.id));
      equal (name ^ ": unequal") false (Curve.equal short c))
    [ "two horizons", long; "two tail denominators", scaled ]

let test_deconv_edge_shapes () =
  (* the denominator may dip: a Lower curve whose certified tail starts
     below its last sample (the shape of a remaining service), and one
     with a dip inside the samples.  A lag past the dip beats every
     earlier lag, including those that land on a step of the numerator. *)
  let f = arrival_curve { period = 10; jitter = 0; burst = 1; wcet = 3; a_horizon = 20 } in
  let tail_dip =
    Curve.of_samples ~kind:Curve.Lower ~tail_rate:(1, 1) ~tail_offset:(-6)
      (Array.init 21 Fun.id)
  in
  let inner_dip =
    Curve.create ~kind:Curve.Lower ~horizon:20 ~tail_rate:(1, 1) (fun s ->
        if s = 14 then 2 else s)
  in
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) name true
        (library_deconv f g = reference_deconv f g))
    [ "tail dip", tail_dip; "inner dip", inner_dip ];
  (* a single unit step against no service: the step's lag reaches the
     row's largest f value exactly *)
  let step =
    Curve.create ~kind:Curve.Upper ~horizon:20 ~tail_rate:(0, 1) (fun x ->
        if x >= 5 then 1 else 0)
  and none = Curve.create ~kind:Curve.Lower ~horizon:20 ~tail_rate:(0, 1) (fun _ -> 0) in
  Alcotest.(check bool) "unit step" true
    (library_deconv step none = reference_deconv step none)

let test_deconv_closed_form_tails () =
  (* the tail certificate is computed in closed form; these shapes put
     weight on each of its terms: an anchor slack on the numerator with a
     horizon shorter than the denominator's (the result's horizon lies in
     the numerator's tail) or equal to it (where that slack can carry
     over), and a numerator that stops rising *)
  let stair ~period ~wcet horizon =
    Array.init (horizon + 1) (fun dt ->
        if dt = 0 then 0 else wcet * (((dt - 1) / period) + 1))
  in
  let offset_tail horizon =
    Curve.of_samples ~kind:Curve.Upper ~tail_rate:(3, 10) ~tail_offset:4
      (stair ~period:10 ~wcet:3 horizon)
  in
  let tdma horizon = Workload.service_tdma ~horizon ~slot:5 ~cycle:10 in
  let fast = Curve.linear ~kind:Curve.Lower ~horizon:61 ~rate:(4, 1) in
  let bounded =
    Curve.of_samples ~kind:Curve.Upper ~tail_rate:(0, 1) ~tail_offset:2
      (Array.init 31 (fun dt -> Stdlib.min 6 (2 * ((dt + 4) / 5))))
  in
  List.iter
    (fun (name, f, g) ->
      Alcotest.(check bool) name true (library_deconv f g = reference_deconv f g))
    [
      "offset tail, shorter numerator horizon", offset_tail 40, tdma 90;
      "offset tail, equal horizons", offset_tail 60, tdma 60;
      "offset tail, equal horizons, fast service", offset_tail 61, fast;
      "zero-rate tail", bounded, Workload.service_full ~horizon:50;
      "zero-rate tail, tdma", bounded, tdma 20;
    ];
  (* at 61 the numerator has just stepped and the service outruns its
     tail, so part of the numerator's anchor slack carries over *)
  Alcotest.(check bool) "slack carried over from the numerator" true
    (Curve.tail_offset (Curve.min_plus_deconv (offset_tail 61) fast) > 0)

let test_deconv_lower_numerator () =
  let f = Curve.linear ~kind:Curve.Lower ~horizon:20 ~rate:(1, 2) in
  let g = Workload.service_full ~horizon:20 in
  Alcotest.check_raises "lower numerator"
    (Invalid_argument "Rtc.Curve.min_plus_deconv: Lower numerator")
    (fun () -> ignore (Curve.min_plus_deconv f g))

let test_deconv_decreasing_numerator () =
  let f =
    Curve.create ~kind:Curve.Upper ~horizon:20 ~tail_rate:(1, 1) (fun dt ->
        if dt = 7 then 9 else dt)
  in
  let g = Workload.service_full ~horizon:20 in
  Alcotest.check_raises "decreasing numerator"
    (Invalid_argument "Rtc.Curve.min_plus_deconv: decreasing numerator")
    (fun () -> ignore (Curve.min_plus_deconv f g))

(* ------------------------------------------------------------------ *)
(* delay bound against the per-window forward search *)

(* The direct form of [Curve.horizontal_deviation]: for every dt the
   search for tau restarts at dt - 1.  The library kernel carries one
   pointer across all dt and must return the same bound. *)
let reference_horizontal_deviation ~upper ~lower =
  if not (Curve.kind upper = Curve.Upper && Curve.kind lower = Curve.Lower)
  then invalid_arg "reference_horizontal_deviation: expected (upper, lower)";
  let upper, lower = Curve.harmonise upper lower in
  let ru = Curve.tail_rate upper and rl = Curve.tail_rate lower in
  if not (Curve.rate_le ru rl) then None
  else begin
    let du = snd ru and dl = snd rl in
    let limit =
      Stdlib.max (Curve.horizon upper) (Curve.horizon lower + 1)
      + (du / gcd du dl * dl)
    in
    let delay_at dt =
      let demand = Curve.eval upper dt in
      let rec advance tau =
        if tau > 8 * limit then None
        else if Curve.eval lower (dt - 1 + tau) >= demand then Some tau
        else advance (tau + 1)
      in
      advance 0
    in
    let rec scan dt best =
      if dt > limit then Some best
      else begin
        match delay_at dt with
        | None -> None
        | Some tau -> scan (dt + 1) (Stdlib.max best tau)
      end
    in
    scan 1 0
  end

let outcome f = match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let prop_delay_matches_reference =
  QCheck.Test.make ~name:"delay bound equals the per-window search" ~count:150
    deconv_case (fun (a, s, horizon) ->
      let upper = arrival_curve a and lower = service_curve ~horizon s in
      outcome (fun () -> Curve.horizontal_deviation ~upper ~lower)
      = outcome (fun () -> reference_horizontal_deviation ~upper ~lower))

let test_delay_reference_cases () =
  (* overload, a demand the service never meets, a delay past the lower
     curve's horizon, and a decreasing upper curve *)
  let check name upper lower =
    Alcotest.(check (option int)) name
      (reference_horizontal_deviation ~upper ~lower)
      (Curve.horizontal_deviation ~upper ~lower)
  in
  let periodic period wcet horizon =
    arrival_curve { period; jitter = 0; burst = 1; wcet; a_horizon = horizon }
  in
  check "overload" (periodic 10 7 100)
    (Workload.service_tdma ~horizon:100 ~slot:3 ~cycle:10);
  (* zero rates pass the rate test; the search cap answers None *)
  check "never served"
    (Curve.create ~kind:Curve.Upper ~horizon:10 ~tail_rate:(0, 1) (fun dt ->
         Stdlib.min dt 5))
    (Curve.create ~kind:Curve.Lower ~horizon:10 ~tail_rate:(0, 1) (fun dt ->
         Stdlib.min dt 4));
  check "long delay" (periodic 200 40 60)
    (Curve.create ~kind:Curve.Lower ~horizon:30 ~tail_rate:(1, 2) (fun dt ->
         if dt <= 50 then 0 else (dt - 50) / 2));
  (* a service whose certified tail starts below its last sample: the
     first index reaching the demand may lie before dt - 1 *)
  check "dipping service"
    (Curve.create ~kind:Curve.Upper ~horizon:30 ~tail_rate:(0, 1) (fun dt ->
         if dt >= 22 then 20 else 0))
    (Curve.of_samples ~kind:Curve.Lower ~tail_rate:(1, 1) ~tail_offset:(-6)
       (Array.init 21 Fun.id));
  let zigzag =
    Curve.create ~kind:Curve.Upper ~horizon:20 ~tail_rate:(1, 1) (fun dt ->
        if dt = 5 then 8 else dt)
  in
  Alcotest.check_raises "decreasing upper"
    (Invalid_argument
       "Rtc.Curve.horizontal_deviation: decreasing upper curve")
    (fun () ->
      ignore
        (Curve.horizontal_deviation ~upper:zigzag
           ~lower:(Workload.service_full ~horizon:20)))

(* ------------------------------------------------------------------ *)
(* arrival tables against per-window pseudo-inversion *)

(* The direct form of the tables behind [Workload.arrival_upper] and
   [arrival_lower]: one [Stream.eta_plus] / [eta_minus] query per window,
   failing at the first window whose inversion is infinite.  The tail
   window search and the certified slack read the table only, so equal
   samples mean equal curves. *)
let reference_table ~horizon ~scale eta error stream =
  Array.init (horizon + 1) (fun dt ->
      match eta stream dt with
      | Timebase.Count.Fin n -> scale * n
      | Timebase.Count.Inf -> invalid_arg error)

let samples c = Array.init (Curve.horizon c + 1) (Curve.eval c)

let table_outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

type stream_kind =
  | Jittery of int * int
  | Burst of int * int * int
  | Sporadic of int
  | Converted of int * int * int  (* period, jitter, wcet *)
  | Saturating of int * int  (* delta_min stops growing after n events *)
  | Bounded_plus of int  (* delta_plus never exceeds the value *)

let string_of_stream_kind = function
  | Jittery (p, j) -> Printf.sprintf "jittery T=%d J=%d" p j
  | Burst (p, b, d) -> Printf.sprintf "burst T=%d b=%d d=%d" p b d
  | Sporadic d -> Printf.sprintf "sporadic d=%d" d
  | Converted (p, j, c) -> Printf.sprintf "converted T=%d J=%d C=%d" p j c
  | Saturating (d, n) -> Printf.sprintf "saturating d=%d n=%d" d n
  | Bounded_plus b -> Printf.sprintf "bounded delta_plus %d" b

let stream_of_kind = function
  | Jittery (period, jitter) ->
    Stream.periodic_jitter ~name:"j" ~period ~jitter ()
  | Burst (period, burst, d_min) ->
    Stream.periodic_burst ~name:"b" ~period ~burst ~d_min
  | Sporadic d_min -> Stream.sporadic ~name:"s" ~d_min
  | Converted (period, jitter, wcet) ->
    let s = Stream.periodic_jitter ~name:"c" ~period ~jitter () in
    let c = Hybrid.Convert.of_stream ~horizon:128 ~wcet ~bcet:1 s in
    Hybrid.Convert.to_stream ~name:"c'" ~wcet ~bcet:1
      ~upper:c.Hybrid.Convert.upper ~lower:(Some c.Hybrid.Convert.lower)
  | Saturating (d, n) ->
    Stream.make ~name:"sat"
      ~delta_min:(fun k -> Timebase.Time.of_int (d * (Stdlib.min k n - 1)))
      ~delta_plus:(fun _ -> Timebase.Time.Inf)
  | Bounded_plus b ->
    Stream.make ~name:"bp"
      ~delta_min:(fun _ -> Timebase.Time.zero)
      ~delta_plus:(fun _ -> Timebase.Time.of_int b)

let gen_stream_kind =
  let open QCheck.Gen in
  frequency
    [
      3, map2 (fun p j -> Jittery (p, j)) (int_range 1 120) (int_range 0 200);
      2, (let* period = int_range 10 200 in
          let* burst = int_range 2 5 in
          let+ d = int_range 0 ((period - 1) / (burst - 1)) in
          Burst (period, burst, d));
      2, map (fun d -> Sporadic d) (int_range 1 80);
      2, (let* period = int_range 5 60 in
          let* jitter = int_range 0 40 in
          let+ wcet = int_range 1 4 in
          Converted (period, jitter, wcet));
      1, map2 (fun d n -> Saturating (d, n)) (int_range 1 20) (int_range 2 8);
      1, map (fun b -> Bounded_plus b) (int_range 0 150);
    ]

let prop_arrival_tables_match_reference =
  QCheck.Test.make ~name:"arrival tables equal per-window eta" ~count:200
    (QCheck.make
       ~print:(fun (k, (h, c)) ->
         Printf.sprintf "%s horizon %d cet %d" (string_of_stream_kind k) h c)
       QCheck.Gen.(
         pair gen_stream_kind (pair (int_range 1 300) (int_range 1 5))))
    (fun (kind, (horizon, cet)) ->
      let s = stream_of_kind kind in
      table_outcome (fun () ->
          samples (Workload.arrival_upper ~horizon ~wcet:cet s))
      = table_outcome (fun () ->
            reference_table ~horizon ~scale:cet Stream.eta_plus
              "Rtc.Workload: unbounded arrivals" s)
      && table_outcome (fun () ->
             samples (Workload.arrival_lower ~horizon ~bcet:cet s))
         = table_outcome (fun () ->
               reference_table ~horizon ~scale:cet Stream.eta_minus
                 "Rtc.Workload: infinite guaranteed arrivals" s))

let test_arrival_table_errors () =
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let sat = stream_of_kind (Saturating (10, 4)) in
  (* delta_min stops at 30: windows up to 30 are bounded, 31 on are not *)
  Alcotest.(check int) "bounded below the saturation" 9
    (Curve.eval (Workload.arrival_upper ~horizon:30 ~wcet:3 sat) 30);
  raises "unbounded arrivals" "Rtc.Workload: unbounded arrivals" (fun () ->
      Workload.arrival_upper ~horizon:31 ~wcet:3 sat);
  let bp = stream_of_kind (Bounded_plus 20) in
  Alcotest.(check int) "guaranteed below the bound" 0
    (Curve.eval (Workload.arrival_lower ~horizon:19 ~bcet:2 bp) 19);
  raises "infinite guaranteed arrivals"
    "Rtc.Workload: infinite guaranteed arrivals" (fun () ->
      Workload.arrival_lower ~horizon:20 ~bcet:2 bp)

let () =
  Alcotest.run "rtc"
    [
      ( "curves",
        [
          Alcotest.test_case "linear" `Quick test_linear_curve;
          Alcotest.test_case "validation" `Quick test_curve_validation;
          Alcotest.test_case "deconvolution" `Quick test_deconvolution;
          Alcotest.test_case "deviations" `Quick test_deviations;
          Alcotest.test_case "tdma service" `Quick test_tdma_service_curve;
          Alcotest.test_case "long-period tail rate" `Quick
            test_long_period_tail_rate;
          Alcotest.test_case "deconvolution reference cases" `Quick
            test_deconv_reference_cases;
          Alcotest.test_case "deconvolution edge shapes" `Quick
            test_deconv_edge_shapes;
          Alcotest.test_case "deconvolution decreasing numerator" `Quick
            test_deconv_decreasing_numerator;
          Alcotest.test_case "deconvolution closed-form tails" `Quick
            test_deconv_closed_form_tails;
          Alcotest.test_case "deconvolution lower numerator" `Quick
            test_deconv_lower_numerator;
          Alcotest.test_case "deconvolution scratch across domains" `Quick
            test_deconv_scratch_domains;
          Alcotest.test_case "equal" `Quick test_curve_equal;
          Alcotest.test_case "delay reference cases" `Quick
            test_delay_reference_cases;
          Alcotest.test_case "arrival table errors" `Quick
            test_arrival_table_errors;
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
            prop_deconv_dominates;
            prop_arrival_tails_conservative;
            prop_deconv_matches_reference;
            prop_delay_matches_reference;
            prop_arrival_tables_match_reference;
          ] );
    ]
