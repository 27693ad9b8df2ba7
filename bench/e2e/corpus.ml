(* Seeded spec-text generator.  Every workload input is built here as a
   [Spec_file.t] description (pure data) and handed to the program as the
   text [Spec_file.print] renders, so the timed path starts from text
   exactly like [hem_tool analyse --file].  System shapes and sizes are
   fixed; the seed draws periods, jitters, execution times, slots and
   deadlines, so two seeds give different inputs of comparable cost. *)

module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module Interval = Timebase.Interval

type entry = {
  name : string;
  text : string;
}

let rng ~seed salt = Random.State.make [| 0x4e3b; seed; Hashtbl.hash salt |]

let draw rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let desc ?(propagation = Event_model.Propagation.Theta_tau) ~sources
    ~resources ~tasks ?(frames = []) () =
  {
    Spec_file.sources;
    resources;
    tasks;
    frames;
    default_propagation = propagation;
  }

let source source_name d = { Spec_file.source_name; desc = d }

let cet lo hi = Interval.make ~lo ~hi

(* Many-ECU network: ECU schedulers rotate through SPP / round-robin /
   TDMA / EDF, each ECU runs a sense -> process chain, process outputs
   are packed two per frame onto one or two SPNP CAN segments,
   receivers two ECUs further on unpack each signal, and with two
   segments a gateway frame repacks a bus-0 signal onto bus 1.  Periods
   are long relative to execution times, so every resource stays lightly
   loaded.  Receivers never share an ECU with a sender of their own
   frame and only round-robin ECUs couple a receiver back into a sender,
   so the fixed point has no feedback loop and converges for every seed
   in every mode.  (SPNP stays on the buses: the simulator runs SPNP
   only for frames.) *)
let network ~seed ~ecus =
  let rng = rng ~seed ("network", ecus) in
  let draw = draw rng in
  let cpu e = Printf.sprintf "ecu%d" e in
  let scheduler e =
    match e mod 4 with
    | 0 -> Spec.Spp
    | 1 -> Spec.Round_robin
    | 2 -> Spec.Tdma
    | _ -> Spec.Edf
  in
  let buses = if ecus >= 4 then 2 else 1 in
  let bus b = Printf.sprintf "bus%d" b in
  let resources =
    List.init ecus (fun e -> Spec.resource ~name:(cpu e) (scheduler e))
    @ List.init buses (fun b -> Spec.resource ~name:(bus b) Spec.Spnp)
  in
  let task ~name ~on ~cet ~priority activation =
    let service, deadline =
      match scheduler on with
      | Spec.Round_robin | Spec.Tdma -> Some (draw 40 60), None
      | Spec.Edf -> None, Some (draw 300 500)
      | Spec.Spp | Spec.Spnp -> None, None
    in
    Spec.task ~name ~resource:(cpu on) ~cet ~priority ?service ?deadline
      ~activation ()
  in
  let sources = ref [] and tasks = ref [] and frames = ref [] in
  for e = 0 to ecus - 1 do
    let src = Printf.sprintf "S%d" e in
    let period = 10 * draw 250 500 in
    let jitter = 10 * draw 0 (period / 40) in
    sources :=
      source src (Spec_file.Periodic_jitter { period; jitter; d_min = 0 })
      :: !sources;
    let sense =
      task ~name:(Printf.sprintf "sense%d" e) ~on:e
        ~cet:(cet (draw 5 10) (draw 11 20))
        ~priority:1 (Spec.From_source src)
    in
    let proc =
      task ~name:(Printf.sprintf "proc%d" e) ~on:e
        ~cet:(cet (draw 5 10) (draw 11 25))
        ~priority:2
        (Spec.From_output (Printf.sprintf "sense%d" e))
    in
    tasks := proc :: sense :: !tasks
  done;
  let frame_count = (ecus + 1) / 2 in
  for f = 0 to frame_count - 1 do
    let members = List.filter (fun e -> e < ecus) [ 2 * f; (2 * f) + 1 ] in
    let fname = Printf.sprintf "F%d" f in
    frames :=
      Spec.frame ~name:fname ~bus:(bus (f mod buses))
        ~send_type:Comstack.Frame.Direct ~tx_time:(cet 2 (draw 3 6))
        ~priority:(f + 1)
        ~signals:
          (List.map
             (fun e ->
               Spec.signal ~name:(Printf.sprintf "sig%d" e)
                 ~origin:(Spec.From_output (Printf.sprintf "proc%d" e))
                 ())
             members)
        ()
      :: !frames;
    List.iter
      (fun e ->
        tasks :=
          task ~name:(Printf.sprintf "recv%d" e) ~on:((e + 2) mod ecus)
            ~cet:(cet (draw 5 10) (draw 11 20))
            ~priority:(3 + (e / 2))
            (Spec.From_signal
               { frame = fname; signal = Printf.sprintf "sig%d" e })
          :: !tasks)
      members
  done;
  if buses = 2 then begin
    frames :=
      Spec.frame ~name:"GW" ~bus:(bus 1) ~send_type:Comstack.Frame.Direct
        ~tx_time:(cet 2 (draw 3 5)) ~priority:(frame_count + 1)
        ~signals:
          [
            Spec.signal ~name:"gw_sig"
              ~origin:(Spec.From_signal { frame = "F0"; signal = "sig0" })
              ();
          ]
        ()
      :: !frames;
    tasks :=
      task ~name:"gw_recv" ~on:(ecus - 1)
        ~cet:(cet (draw 5 8) (draw 9 15))
        ~priority:99
        (Spec.From_signal { frame = "GW"; signal = "gw_sig" })
      :: !tasks
  end;
  desc ~sources:(List.rev !sources) ~resources ~tasks:(List.rev !tasks)
    ~frames:(List.rev !frames) ()

(* [signals] periodic sources packed into one direct CAN frame and
   unpacked by one SPP receiver each — the paper's fan-in pattern. *)
let fan_in ~seed ~signals =
  let rng = rng ~seed ("fan_in", signals) in
  let draw = draw rng in
  let base = 360 * signals in
  let sources =
    List.init signals (fun i ->
      source (Printf.sprintf "S%d" (i + 1))
        (Spec_file.Periodic (base + (50 * i) + (10 * draw 0 5))))
  in
  let frame =
    Spec.frame ~name:"F" ~bus:"CAN" ~send_type:Comstack.Frame.Direct
      ~tx_time:(Interval.point (draw 3 5)) ~priority:1
      ~signals:
        (List.init signals (fun i ->
           Spec.signal ~name:(Printf.sprintf "sig%d" (i + 1))
             ~origin:(Spec.From_source (Printf.sprintf "S%d" (i + 1)))
             ()))
      ()
  in
  let tasks =
    List.init signals (fun i ->
      Spec.task ~name:(Printf.sprintf "T%d" (i + 1)) ~resource:"CPU"
        ~cet:(Interval.point (draw 16 24))
        ~priority:(i + 1)
        ~activation:
          (Spec.From_signal
             { frame = "F"; signal = Printf.sprintf "sig%d" (i + 1) })
        ())
  in
  desc ~sources
    ~resources:
      [ Spec.resource ~name:"CAN" Spec.Spnp; Spec.resource ~name:"CPU" Spec.Spp ]
    ~tasks ~frames:[ frame ] ()

(* A pipeline of [stages] tasks alternating between two SPP CPUs. *)
let chain ~seed ~stages =
  let rng = rng ~seed ("chain", stages) in
  let draw = draw rng in
  let tasks =
    List.init stages (fun i ->
      Spec.task ~name:(Printf.sprintf "stage%d" (i + 1))
        ~resource:(Printf.sprintf "cpu%d" (i mod 2))
        ~cet:(cet 10 (20 + (4 * i) + draw 0 2))
        ~priority:(i + 1)
        ~activation:
          (if i = 0 then Spec.From_source "src"
           else Spec.From_output (Printf.sprintf "stage%d" i))
        ())
  in
  desc
    ~sources:[ source "src" (Spec_file.Periodic (600 + (10 * draw 0 2))) ]
    ~resources:
      [ Spec.resource ~name:"cpu0" Spec.Spp; Spec.resource ~name:"cpu1" Spec.Spp ]
    ~tasks ()

(* Two CAN segments joined by a gateway CPU that forwards both signals
   of the first segment's frame into a frame on the second. *)
let gateway ~seed =
  let rng = rng ~seed "gateway" in
  let draw = draw rng in
  let sig_of frame signal = Spec.From_signal { frame; signal } in
  desc
    ~sources:
      [
        source "S1" (Spec_file.Periodic (250 + (10 * draw 0 3)));
        source "S2" (Spec_file.Periodic (450 + (10 * draw 0 3)));
      ]
    ~resources:
      [
        Spec.resource ~name:"CAN1" Spec.Spnp;
        Spec.resource ~name:"GW" Spec.Spp;
        Spec.resource ~name:"CAN2" Spec.Spnp;
        Spec.resource ~name:"SINK" Spec.Spp;
      ]
    ~frames:
      [
        Spec.frame ~name:"G1" ~bus:"CAN1" ~send_type:Comstack.Frame.Direct
          ~tx_time:(Interval.point 4) ~priority:1
          ~signals:
            [
              Spec.signal ~name:"sig1" ~origin:(Spec.From_source "S1") ();
              Spec.signal ~name:"sig2" ~origin:(Spec.From_source "S2") ();
            ]
          ();
        Spec.frame ~name:"B1" ~bus:"CAN2" ~send_type:Comstack.Frame.Direct
          ~tx_time:(Interval.point 6) ~priority:1
          ~signals:
            [
              Spec.signal ~name:"gsig1" ~origin:(Spec.From_output "GW1") ();
              Spec.signal ~name:"gsig2" ~origin:(Spec.From_output "GW2") ();
            ]
          ();
      ]
    ~tasks:
      [
        Spec.task ~name:"GW1" ~resource:"GW" ~cet:(cet 3 (draw 5 6))
          ~priority:1 ~activation:(sig_of "G1" "sig1") ();
        Spec.task ~name:"GW2" ~resource:"GW" ~cet:(cet 4 (draw 7 8))
          ~priority:2 ~activation:(sig_of "G1" "sig2") ();
        Spec.task ~name:"D1" ~resource:"SINK"
          ~cet:(Interval.point (draw 18 22))
          ~priority:1 ~activation:(sig_of "B1" "gsig1") ();
        Spec.task ~name:"D2" ~resource:"SINK"
          ~cet:(Interval.point (draw 28 32))
          ~priority:2 ~activation:(sig_of "B1" "gsig2") ();
      ]
    ()

(* Backend assignments of the RTC workload.  EDF has no curve backend,
   so it stays on CPA; the mixed form alternates rtc/cpa over the other
   resources in declaration order. *)
let pure_rtc (d : Spec_file.t) =
  {
    d with
    Spec_file.resources =
      List.map
        (fun (r : Spec.resource) ->
          if r.scheduler = Spec.Edf then r else { r with backend = Spec.Rtc })
        d.resources;
  }

let mixed (d : Spec_file.t) =
  let k = ref 0 in
  {
    d with
    Spec_file.resources =
      List.map
        (fun (r : Spec.resource) ->
          if r.scheduler = Spec.Edf then r
          else begin
            incr k;
            { r with backend = (if !k mod 2 = 1 then Spec.Rtc else Spec.Cpa) }
          end)
        d.resources;
  }

let entry name d = { name; text = Spec_file.print d }

let example ~root path =
  match Timing.read_file (Filename.concat root path) with
  | None -> failwith ("cannot read " ^ path)
  | Some text -> (
    match Spec_file.parse text with
    | Ok d -> { name = Filename.basename path; text }, d
    | Error e -> failwith (Printf.sprintf "%s: %s" path e))

(* analyse_cold: three shipped examples plus networks of 4-64 ECUs,
   fan-ins of 2-16 signals, chains of 4-16 stages and two-segment
   gateways, all on the CPA backend. *)
let cold ~root ~seed =
  List.map
    (fun path -> fst (example ~root path))
    [ "examples/paper.spec"; "examples/specs/avionics.scm";
      "examples/specs/paper_gateway.scm" ]
  @ List.map
      (fun ecus -> entry (Printf.sprintf "network_%d" ecus) (network ~seed ~ecus))
      [ 4; 5; 6; 8; 10; 12; 16; 20; 24; 32; 48; 64 ]
  @ List.map
      (fun signals ->
        entry (Printf.sprintf "fan_in_%d" signals) (fan_in ~seed ~signals))
      [ 2; 3; 4; 5; 6; 8; 10; 12; 14; 16 ]
  @ List.map
      (fun stages ->
        entry (Printf.sprintf "chain_%d" stages) (chain ~seed ~stages))
      [ 4; 5; 6; 8; 10; 12; 14; 16 ]
  @ List.map
      (fun k -> entry (Printf.sprintf "gateway_%d" k) (gateway ~seed:(seed + k)))
      [ 1; 2; 3; 4; 5; 6 ]

(* analyse_rtc: pure-RTC paper / gateway / fan_in_8 / chain_4 / chain_6 /
   network_4, the alternating cpa/rtc form of avionics and network_8,
   and the shipped hybrid.spec (the paper system with an RTC CPU).
   chain_8 and longer go overloaded under RTC and cost seconds each, so
   they stay out.  Each entry keeps its description for the simulator. *)
let rtc ~root ~seed =
  let paper = snd (example ~root "examples/paper.spec") in
  let avionics = snd (example ~root "examples/specs/avionics.scm") in
  List.map
    (fun (name, d) -> entry name d, d)
    [
      "paper.rtc", pure_rtc paper;
      "gateway.rtc", pure_rtc (gateway ~seed);
      "fan_in_8.rtc", pure_rtc (fan_in ~seed ~signals:8);
      "chain_4.rtc", pure_rtc (chain ~seed ~stages:4);
      "chain_6.rtc", pure_rtc (chain ~seed ~stages:6);
      "network_4.rtc", pure_rtc (network ~seed ~ecus:4);
      "avionics.mixed", mixed avionics;
      "network_8.mixed", mixed (network ~seed ~ecus:8);
    ]
  @ [ example ~root "examples/hybrid.spec" ]
