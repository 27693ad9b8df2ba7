(* Tests for the hybrid RTC<->CPA coupling: stream<->curve round trips
   (exact on jitter-free periodic input, conservative everywhere), the
   pseudo-inversion primitive, per-resource backend agreement on
   single-resource point systems, and mixed-backend convergence through
   the global engine. *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Convert = Hybrid.Convert
module Curve = Rtc.Curve

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

let roundtrip ~horizon ~wcet ~bcet stream =
  let curves = Convert.of_stream ~horizon ~wcet ~bcet stream in
  Convert.to_stream
    ~name:(Stream.name stream ^ "~rt")
    ~wcet ~bcet ~upper:curves.Convert.upper ~lower:(Some curves.Convert.lower)

(* ------------------------------------------------------------------ *)
(* conversion round trips *)

let test_roundtrip_periodic_exact () =
  let s = Stream.periodic ~name:"p" ~period:10 in
  let s' = roundtrip ~horizon:200 ~wcet:3 ~bcet:3 s in
  for n = 2 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "delta_min %d exact" n)
      true
      (Time.equal (Stream.delta_min s' n) (Stream.delta_min s n));
    Alcotest.(check bool)
      (Printf.sprintf "delta_plus %d exact" n)
      true
      (Time.equal (Stream.delta_plus s' n) (Stream.delta_plus s n))
  done

let test_roundtrip_jitter_conservative () =
  (* jitter and wcet > bcet lose exactness but never conservativeness,
     including well past the sampled horizon (n = 60 needs a window of
     1165 against a horizon of 256, i.e. the certified tails) *)
  let s = Stream.periodic_jitter ~name:"pj" ~period:20 ~jitter:15 () in
  let s' = roundtrip ~horizon:256 ~wcet:5 ~bcet:2 s in
  for n = 2 to 60 do
    Alcotest.(check bool)
      (Printf.sprintf "delta_min %d conservative" n)
      true
      Time.(Stream.delta_min s' n <= Stream.delta_min s n);
    Alcotest.(check bool)
      (Printf.sprintf "delta_plus %d conservative" n)
      true
      Time.(Stream.delta_plus s' n >= Stream.delta_plus s n)
  done

let prop_roundtrip_conservative =
  QCheck.Test.make ~name:"stream round trip is conservative" ~count:60
    (QCheck.pair
       (QCheck.pair (QCheck.int_range 5 60) (QCheck.int_range 0 40))
       (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 0 5)))
    (fun ((period, jitter), (bcet, extra)) ->
      let wcet = bcet + extra in
      let s = Stream.periodic_jitter ~name:"q" ~period ~jitter () in
      let s' = roundtrip ~horizon:192 ~wcet ~bcet s in
      List.for_all
        (fun n ->
          Time.(Stream.delta_min s' n <= Stream.delta_min s n)
          && Time.(Stream.delta_plus s' n >= Stream.delta_plus s n))
        (List.init 39 (fun i -> i + 2)))

(* ------------------------------------------------------------------ *)
(* pseudo-inversion primitive *)

let test_first_reaching () =
  let c = Curve.linear ~kind:Curve.Upper ~horizon:10 ~rate:(1, 2) in
  (* eval dt = ceil (dt / 2) *)
  Alcotest.(check (option int)) "zero target" (Some 0)
    (Convert.first_reaching c 0);
  Alcotest.(check (option int)) "within horizon" (Some 5)
    (Convert.first_reaching c 3);
  Alcotest.(check (option int)) "exactly at horizon" (Some 9)
    (Convert.first_reaching c 5);
  Alcotest.(check (option int)) "past horizon via tail" (Some 39)
    (Convert.first_reaching c 20);
  let z = Curve.create ~kind:Curve.Lower ~horizon:10 ~tail_rate:(0, 1) (fun _ -> 0) in
  Alcotest.(check (option int)) "zero-rate curve never reaches" None
    (Convert.first_reaching z 1)

(* The output stream's lower curve is the input's delayed by the
   response jitter.  [to_stream_delayed] adds the delay to the inverted
   distance instead of building the shifted curve; over lower curves of
   every shape the hybrid backend produces (guaranteed demand of jittery
   and bursty streams, TDMA service with its negative anchor offset, an
   arbitrary staircase with a zero or positive tail), delta_plus must
   equal the shifted curve's, and delta_min must not move. *)
let gen_lower_curve =
  let open QCheck.Gen in
  let* horizon = int_range 16 300 in
  frequency
    [
      ( 3,
        let* period = int_range 5 120 in
        let* jitter = int_range 0 (2 * period) in
        let+ bcet = int_range 1 6 in
        ( Printf.sprintf "eta_minus T=%d J=%d C=%d h=%d" period jitter bcet
            horizon,
          Rtc.Workload.arrival_lower ~horizon ~bcet
            (Stream.periodic_jitter ~name:"l" ~period ~jitter ()) ) );
      ( 2,
        let* cycle = int_range 2 40 in
        let+ slot = int_range 1 cycle in
        ( Printf.sprintf "tdma %d/%d h=%d" slot cycle horizon,
          Rtc.Workload.service_tdma ~horizon ~slot ~cycle ) );
      ( 2,
        let* steps = array_size (return (horizon + 1)) (int_range 0 3) in
        let* num = int_range 0 3 in
        let+ den = int_range 1 5 in
        let samples = Array.make (horizon + 1) 0 in
        for dt = 1 to horizon do
          samples.(dt) <- samples.(dt - 1) + steps.(dt)
        done;
        ( Printf.sprintf "staircase tail %d/%d h=%d" num den horizon,
          Curve.of_samples ~kind:Curve.Lower ~tail_rate:(num, den)
            ~tail_offset:0 samples ) );
    ]

let prop_delayed_inversion =
  QCheck.Test.make ~name:"delayed lower inversion equals the shifted curve"
    ~count:200
    (QCheck.make
       ~print:(fun ((name, _), (jitter, bcet)) ->
         Printf.sprintf "%s jitter=%d bcet=%d" name jitter bcet)
       QCheck.Gen.(
         pair gen_lower_curve (pair (int_range 0 50) (int_range 1 6))))
    (fun ((_, lower), (jitter, bcet)) ->
      let upper = Curve.linear ~kind:Curve.Upper ~horizon:16 ~rate:(1, 1) in
      let wcet = bcet in
      let shifted =
        Convert.to_stream ~name:"s" ~wcet ~bcet ~upper
          ~lower:
            (Some (Rtc.Workload.service_delayed ~blocking:jitter lower))
      and delayed =
        Convert.to_stream_delayed ~name:"d" ~wcet ~bcet ~upper
          ~lower:(Some lower) ~lower_delay:jitter
      in
      List.for_all
        (fun n ->
          Time.equal (Stream.delta_plus delayed n) (Stream.delta_plus shifted n)
          && Time.equal (Stream.delta_min delayed n)
               (Stream.delta_min shifted n))
        (List.init 299 (fun i -> i + 2)))

(* ------------------------------------------------------------------ *)
(* item reuse across analyses *)

module Local = Hybrid.Local

(* The activations the steps swap between.  Shared values, so an item
   that gets a stream back finds its cached curves by [==]. *)
let activation_pool =
  [|
    Stream.periodic ~name:"a0" ~period:100;
    Stream.periodic_jitter ~name:"a1" ~period:150 ~jitter:40 ();
    Stream.periodic ~name:"a2" ~period:80;
    Stream.periodic_jitter ~name:"a3" ~period:240 ~jitter:300 ~d_min:5 ();
    Stream.periodic_burst ~name:"a4" ~period:400 ~burst:3 ~d_min:20;
    Stream.sporadic ~name:"a5" ~d_min:120;
  |]

let policies = [| Local.Spp; Local.Spnp; Local.Tdma; Local.Round_robin |]

let policy_name = function
  | Local.Spp -> "spp"
  | Local.Spnp -> "spnp"
  | Local.Tdma -> "tdma"
  | Local.Round_robin -> "round_robin"

type mutation =
  | Swap_activation of int * int  (** item, pool index *)
  | Set_cet of int * int * int  (** item, bcet, extra *)
  | Rotate_priorities of int
  | Set_slot of int * int  (** item, slot *)

let mutation_name = function
  | Swap_activation (i, a) -> Printf.sprintf "item %d activation a%d" i a
  | Set_cet (i, lo, extra) ->
    Printf.sprintf "item %d cet [%d:%d]" i lo (lo + extra)
  | Rotate_priorities k -> Printf.sprintf "rotate priorities by %d" k
  | Set_slot (i, slot) -> Printf.sprintf "item %d slot %d" i slot

let item_of i (a, (lo, extra), prio, slot) =
  {
    Local.name = Printf.sprintf "i%d" i;
    cet = Interval.make ~lo ~hi:(lo + extra);
    priority = prio;
    service = Some slot;
    activation = activation_pool.(a);
  }

let mutate items = function
  | Swap_activation (i, a) ->
    List.mapi
      (fun j (it : Local.item) ->
        if j = i then { it with activation = activation_pool.(a) } else it)
      items
  | Set_cet (i, lo, extra) ->
    List.mapi
      (fun j (it : Local.item) ->
        if j = i then { it with cet = Interval.make ~lo ~hi:(lo + extra) }
        else it)
      items
  | Rotate_priorities k ->
    let prios = Array.of_list (List.map (fun (it : Local.item) -> it.priority) items) in
    let n = Array.length prios in
    List.mapi
      (fun j (it : Local.item) -> { it with priority = prios.((j + k) mod n) })
      items
  | Set_slot (i, slot) ->
    List.mapi
      (fun j (it : Local.item) ->
        if j = i then { it with service = Some slot } else it)
      items

let gen_reuse_case =
  let open QCheck.Gen in
  let* n = int_range 2 4 in
  let* policy = oneofa policies in
  let gen_item =
    quad
      (int_range 0 (Array.length activation_pool - 1))
      (pair (int_range 1 6) (int_range 0 8))
      (int_range 1 4) (int_range 1 12)
  in
  let* items = list_repeat n gen_item in
  let item = int_range 0 (n - 1) in
  let gen_mutation =
    frequency
      [
        ( 3,
          map2 (fun i a -> Swap_activation (i, a)) item
            (int_range 0 (Array.length activation_pool - 1)) );
        ( 3,
          map3 (fun i lo extra -> Set_cet (i, lo, extra)) item (int_range 1 6)
            (int_range 0 8) );
        2, map (fun k -> Rotate_priorities k) (int_range 1 (n - 1));
        2, map2 (fun i slot -> Set_slot (i, slot)) item (int_range 1 12);
      ]
  in
  let+ steps = list_size (int_range 1 8) gen_mutation in
  policy, List.mapi item_of items, steps

let response_equal a b =
  match a, b with
  | Scheduling.Busy_window.Bounded x, Scheduling.Busy_window.Bounded y ->
    Interval.equal x y
  | Scheduling.Busy_window.Unbounded x, Scheduling.Busy_window.Unbounded y ->
    String.equal x y
  | _ -> false

let output_equal a b =
  match a, b with
  | None, None -> true
  | Some (s, k), Some (s', k') ->
    Local.output_key_equal k k'
    && List.for_all
         (fun n ->
           Time.equal (Stream.delta_min s n) (Stream.delta_min s' n)
           && Time.equal (Stream.delta_plus s n) (Stream.delta_plus s' n))
         (List.init 199 (fun i -> i + 2))
  | _ -> false

let outcomes_equal (a : Local.outcome list) (b : Local.outcome list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Local.outcome) (y : Local.outcome) ->
         String.equal x.name y.name
         && response_equal x.response y.response
         && output_equal x.output y.output)
       a b

(* One cache follows a resource through a sequence of edits; after every
   edit its analysis must equal a fresh one. *)
let prop_cache_exact =
  QCheck.Test.make ~name:"item cache equals a fresh analysis after every edit"
    ~count:150
    (QCheck.make
       ~print:(fun (policy, items, steps) ->
         Printf.sprintf "%s, %d items; %s" (policy_name policy)
           (List.length items)
           (String.concat "; " (List.map mutation_name steps)))
       gen_reuse_case)
    (fun (policy, items, steps) ->
      let cache = Local.cache () in
      let agrees items =
        outcomes_equal
          (Local.analyse ~cache ~policy items)
          (Local.analyse ~policy items)
      in
      agrees items
      && snd
           (List.fold_left
              (fun (items, ok) m ->
                let items = mutate items m in
                items, ok && agrees items)
              (items, true) steps))

let test_repeat_reuses () =
  (* a repeated analysis of unchanged items serves every outcome from
     the cache *)
  let items =
    List.mapi item_of
      [ 0, (2, 1), 1, 4; 1, (3, 0), 2, 4; 2, (1, 2), 3, 4 ]
  in
  List.iter
    (fun policy ->
      let cache = Local.cache () in
      let first = Local.analyse ~cache ~policy items in
      let scope = Obs.Metrics.scope "reuse" in
      let again =
        Obs.Metrics.in_scope scope (fun () -> Local.analyse ~cache ~policy items)
      in
      Alcotest.(check bool)
        (policy_name policy ^ ": same outcome values")
        true
        (List.for_all2 ( == ) first again);
      Alcotest.(check int)
        (policy_name policy ^ ": items reused")
        (List.length items)
        (Obs.Metrics.read scope Rtc.Stats.items_reused))
    (Array.to_list policies)

(* ------------------------------------------------------------------ *)
(* backend agreement and mixed-backend convergence *)

let point_spec backend =
  Spec.make
    ~sources:
      [
        "s1", Stream.periodic ~name:"s1" ~period:100;
        "s2", Stream.periodic ~name:"s2" ~period:150;
      ]
    ~resources:[ { Spec.res_name = "cpu"; scheduler = Spec.Spp; backend } ]
    ~tasks:
      [
        Spec.task ~name:"t1" ~resource:"cpu" ~cet:(Interval.point 10)
          ~priority:1 ~activation:(Spec.From_source "s1") ();
        Spec.task ~name:"t2" ~resource:"cpu" ~cet:(Interval.point 20)
          ~priority:2 ~activation:(Spec.From_source "s2") ();
      ]
    ()

let test_pure_backend_agreement () =
  (* on a single-resource SPP point system the RTC and CPA local
     analyses must agree on every worst-case response *)
  let cpa = ok (Engine.analyse ~mode:Engine.Hierarchical (point_spec Spec.Cpa)) in
  let rtc = ok (Engine.analyse ~mode:Engine.Hierarchical (point_spec Spec.Rtc)) in
  Alcotest.(check bool) "cpa converged" true cpa.Engine.converged;
  Alcotest.(check bool) "rtc converged" true rtc.Engine.converged;
  List.iter
    (fun name ->
      match Engine.response cpa name, Engine.response rtc name with
      | Some a, Some b ->
        Alcotest.(check int) (name ^ " worst case agrees") (Interval.hi a)
          (Interval.hi b)
      | _ -> Alcotest.failf "%s: missing response" name)
    [ "t1"; "t2" ]

let mixed_spec () =
  (* a -> b -> c ping-pongs between an RTC resource and a CPA resource,
     so the global fixed point crosses the conversion boundary twice *)
  Spec.make
    ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
    ~resources:
      [
        { Spec.res_name = "cpu1"; scheduler = Spec.Spp; backend = Spec.Rtc };
        { Spec.res_name = "cpu2"; scheduler = Spec.Spp; backend = Spec.Cpa };
      ]
    ~tasks:
      [
        Spec.task ~name:"a" ~resource:"cpu1"
          ~cet:(Interval.make ~lo:5 ~hi:10)
          ~priority:1 ~activation:(Spec.From_source "s") ();
        Spec.task ~name:"b" ~resource:"cpu2"
          ~cet:(Interval.make ~lo:10 ~hi:20)
          ~priority:1 ~activation:(Spec.From_output "a") ();
        Spec.task ~name:"c" ~resource:"cpu1"
          ~cet:(Interval.make ~lo:2 ~hi:8)
          ~priority:2 ~activation:(Spec.From_output "b") ();
      ]
    ()

let test_mixed_backend_converges () =
  let result =
    ok (Engine.analyse ~mode:Engine.Hierarchical ~incremental:false (mixed_spec ()))
  in
  Alcotest.(check bool) "converged" true result.Engine.converged;
  List.iter
    (fun (name, cet_hi) ->
      match Engine.response result name with
      | Some r ->
        Alcotest.(check bool)
          (name ^ " bounded below by demand")
          true
          (Interval.hi r >= cet_hi)
      | None -> Alcotest.failf "%s: missing response" name)
    [ "a", 10; "b", 20; "c", 8 ]

let test_edf_rtc_rejected () =
  let spec =
    Spec.make
      ~sources:[ "s", Stream.periodic ~name:"s" ~period:100 ]
      ~resources:
        [ { Spec.res_name = "cpu"; scheduler = Spec.Edf; backend = Spec.Rtc } ]
      ~tasks:
        [
          Spec.task ~name:"t" ~resource:"cpu" ~cet:(Interval.point 10)
            ~priority:1 ~deadline:50 ~activation:(Spec.From_source "s") ();
        ]
      ()
  in
  match Spec.validate spec with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "edf resource with rtc backend must be rejected"

(* ------------------------------------------------------------------ *)
(* pinned RTC outputs *)

(* The rendered per-element bounds of the shipped mixed-backend example
   and of the paper system forced onto the RTC backend.  Every curve
   operation of the RTC path is exact integer arithmetic, so any change
   to these lines is a change in the analysis, not noise. *)
let rendered spec =
  Format.asprintf "%a" Cpa_system.Report.print_outcomes
    (ok (Engine.analyse ~mode:Engine.Hierarchical spec))

let test_pinned_hybrid_example () =
  let text =
    let ic = open_in_bin "hybrid.spec" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let spec =
    match Cpa_system.Spec_file.parse text with
    | Ok d -> Cpa_system.Spec_file.to_spec d
    | Error e -> Alcotest.failf "hybrid.spec: %s" e
  in
  Alcotest.(check string) "examples/hybrid.spec"
    "f1           on can      R = [4:10]\n\
     f2           on can      R = [2:10]\n\
     t1           on cpu1     R = [24:24]\n\
     t2           on cpu1     R = [32:56]\n\
     t3           on cpu1     R = [40:96]\n\
     converged: true after 3 iteration(s)\n"
    (rendered spec)

let test_pinned_paper_rtc () =
  let spec = Scenarios.Paper_system.spec () in
  let spec =
    {
      spec with
      Spec.resources =
        List.map
          (fun (r : Spec.resource) -> { r with Spec.backend = Spec.Rtc })
          spec.Spec.resources;
    }
  in
  Alcotest.(check string) "paper system, rtc backend"
    "F1           on CAN      R = [4:10]\n\
     F2           on CAN      R = [2:10]\n\
     T1           on CPU1     R = [24:24]\n\
     T2           on CPU1     R = [32:56]\n\
     T3           on CPU1     R = [40:96]\n\
     converged: true after 3 iteration(s)\n"
    (rendered spec)

(* The same pins for the synthetic systems of the hybrid benchmark
   table, under the RTC backend everywhere (EDF resources excepted, as
   the engine requires) and with RTC on every other resource. *)
let with_backends choose (spec : Spec.t) =
  {
    spec with
    Spec.resources =
      List.mapi
        (fun i (r : Spec.resource) ->
          if r.Spec.scheduler = Spec.Edf then { r with Spec.backend = Spec.Cpa }
          else { r with Spec.backend = choose i })
        spec.Spec.resources;
  }

let rtc_everywhere = with_backends (fun _ -> Spec.Rtc)

let rtc_alternating =
  with_backends (fun i -> if i mod 2 = 0 then Spec.Rtc else Spec.Cpa)

let test_pinned_fan_in_8 () =
  let spec = Scenarios.Synthetic.fan_in ~signals:8 () in
  Alcotest.(check string) "fan_in_8, rtc backends"
    "F            on CAN      R = [4:32]\n\
     T1           on CPU      R = [20:20]\n\
     T2           on CPU      R = [20:40]\n\
     T3           on CPU      R = [20:60]\n\
     T4           on CPU      R = [20:80]\n\
     T5           on CPU      R = [20:100]\n\
     T6           on CPU      R = [20:120]\n\
     T7           on CPU      R = [20:140]\n\
     T8           on CPU      R = [20:160]\n\
     converged: true after 2 iteration(s)\n"
    (rendered (rtc_everywhere spec));
  Alcotest.(check string) "fan_in_8, mixed backends"
    "F            on CAN      R = [4:32]\n\
     T1           on CPU      R = [20:20]\n\
     T2           on CPU      R = [20:40]\n\
     T3           on CPU      R = [20:60]\n\
     T4           on CPU      R = [20:80]\n\
     T5           on CPU      R = [20:100]\n\
     T6           on CPU      R = [20:120]\n\
     T7           on CPU      R = [20:140]\n\
     T8           on CPU      R = [20:160]\n\
     converged: true after 2 iteration(s)\n"
    (rendered (rtc_alternating spec))

let test_pinned_network_8 () =
  let spec = Scenarios.Synthetic.network () in
  Alcotest.(check string) "network_8, rtc backends"
    "sense0       on ecu0     R = [9:15]\n\
     proc0        on ecu0     R = [5:37]\n\
     recv7        on ecu0     R = [10:48]\n\
     sense1       on ecu1     R = [7:38]\n\
     proc1        on ecu1     R = [8:57]\n\
     recv0        on ecu1     R = [6:57]\n\
     sense2       on ecu2     R = [6:115]\n\
     proc2        on ecu2     R = [8:118]\n\
     recv1        on ecu2     R = [9:180]\n\
     sense3       on ecu3     R = [9:15]\n\
     proc3        on ecu3     R = [10:38]\n\
     recv2        on ecu3     R = [6:51]\n\
     sense4       on ecu4     R = [9:36]\n\
     proc4        on ecu4     R = [7:55]\n\
     recv3        on ecu4     R = [10:55]\n\
     sense5       on ecu5     R = [7:117]\n\
     proc5        on ecu5     R = [5:113]\n\
     recv4        on ecu5     R = [8:120]\n\
     sense6       on ecu6     R = [9:19]\n\
     proc6        on ecu6     R = [7:39]\n\
     recv5        on ecu6     R = [8:54]\n\
     sense7       on ecu7     R = [6:23]\n\
     proc7        on ecu7     R = [5:34]\n\
     recv6        on ecu7     R = [7:45]\n\
     gw_recv      on ecu7     R = [6:45]\n\
     F0           on bus0     R = [2:15]\n\
     F2           on bus0     R = [2:20]\n\
     F1           on bus1     R = [2:9]\n\
     F3           on bus1     R = [2:15]\n\
     GW           on bus1     R = [2:15]\n\
     converged: true after 4 iteration(s)\n"
    (rendered (rtc_everywhere spec));
  Alcotest.(check string) "network_8, mixed backends"
    "sense0       on ecu0     R = [9:15]\n\
     proc0        on ecu0     R = [5:37]\n\
     recv7        on ecu0     R = [10:48]\n\
     sense1       on ecu1     R = [7:38]\n\
     proc1        on ecu1     R = [8:57]\n\
     recv0        on ecu1     R = [6:57]\n\
     sense2       on ecu2     R = [6:115]\n\
     proc2        on ecu2     R = [8:118]\n\
     recv1        on ecu2     R = [9:129]\n\
     sense3       on ecu3     R = [9:15]\n\
     proc3        on ecu3     R = [10:38]\n\
     recv2        on ecu3     R = [6:51]\n\
     sense4       on ecu4     R = [9:36]\n\
     proc4        on ecu4     R = [7:55]\n\
     recv3        on ecu4     R = [10:55]\n\
     sense5       on ecu5     R = [7:48]\n\
     proc5        on ecu5     R = [5:48]\n\
     recv4        on ecu5     R = [8:48]\n\
     sense6       on ecu6     R = [9:19]\n\
     proc6        on ecu6     R = [7:39]\n\
     recv5        on ecu6     R = [8:54]\n\
     sense7       on ecu7     R = [6:23]\n\
     proc7        on ecu7     R = [5:34]\n\
     recv6        on ecu7     R = [7:45]\n\
     gw_recv      on ecu7     R = [6:45]\n\
     F0           on bus0     R = [2:15]\n\
     F2           on bus0     R = [2:20]\n\
     F1           on bus1     R = [2:9]\n\
     F3           on bus1     R = [2:15]\n\
     GW           on bus1     R = [2:15]\n\
     converged: true after 3 iteration(s)\n"
    (rendered (rtc_alternating spec))

let test_pinned_chain_12 () =
  let spec = Scenarios.Synthetic.chain ~stages:12 () in
  Alcotest.(check string) "chain_12, rtc backends"
    "stage1       on cpu0     R = [10:20]\n\
     stage3       on cpu0     R = [10:50]\n\
     stage5       on cpu0     R = [10:90]\n\
     stage7       on cpu0     R = [10:140]\n\
     stage9       on cpu0     R = [10:200]\n\
     stage11      on cpu0     R = [10:355]\n\
     stage2       on cpu1     R = [10:25]\n\
     stage4       on cpu1     R = [10:60]\n\
     stage6       on cpu1     R = [10:105]\n\
     stage8       on cpu1     R = [10:160]\n\
     stage10      on cpu1     R = [10:240]\n\
     stage12      on cpu1     R = unbounded (rtc: arrival rate of stage12 exceeds its guaranteed service)\n\
     converged: false after 3 iteration(s)\n"
    (rendered (rtc_everywhere spec));
  Alcotest.(check string) "chain_12, mixed backends"
    "stage1       on cpu0     R = [10:20]\n\
     stage3       on cpu0     R = [10:50]\n\
     stage5       on cpu0     R = [10:90]\n\
     stage7       on cpu0     R = [10:140]\n\
     stage9       on cpu0     R = [10:215]\n\
     stage11      on cpu0     R = [10:650]\n\
     stage2       on cpu1     R = [10:25]\n\
     stage4       on cpu1     R = [10:60]\n\
     stage6       on cpu1     R = [10:105]\n\
     stage8       on cpu1     R = [10:160]\n\
     stage10      on cpu1     R = [10:345]\n\
     stage12      on cpu1     R = unbounded (busy window diverges (overload))\n\
     converged: false after 4 iteration(s)\n"
    (rendered (rtc_alternating spec))

let () =
  Alcotest.run "hybrid"
    [
      ( "conversion",
        [
          Alcotest.test_case "periodic round trip exact" `Quick
            test_roundtrip_periodic_exact;
          Alcotest.test_case "jittery round trip conservative" `Quick
            test_roundtrip_jitter_conservative;
          Alcotest.test_case "first_reaching" `Quick test_first_reaching;
        ] );
      ( "item reuse",
        [
          Alcotest.test_case "repeated analysis reuses every item" `Quick
            test_repeat_reuses;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pure backend agreement" `Quick
            test_pure_backend_agreement;
          Alcotest.test_case "mixed backend converges" `Quick
            test_mixed_backend_converges;
          Alcotest.test_case "edf rejects rtc backend" `Quick
            test_edf_rtc_rejected;
          Alcotest.test_case "pinned hybrid example" `Quick
            test_pinned_hybrid_example;
          Alcotest.test_case "pinned paper system on rtc" `Quick
            test_pinned_paper_rtc;
          Alcotest.test_case "pinned fan_in_8" `Quick test_pinned_fan_in_8;
          Alcotest.test_case "pinned network_8" `Quick test_pinned_network_8;
          Alcotest.test_case "pinned chain_12" `Quick test_pinned_chain_12;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip_conservative; prop_delayed_inversion;
            prop_cache_exact;
          ] );
    ]
